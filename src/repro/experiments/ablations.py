"""Ablation experiments beyond the paper's tables.

These exercise the design choices the paper references but does not sweep
itself:

* ``ablation_btb``      — decoupled vs. coupled BTB (the Calder & Grunwald
  comparison the paper cites to justify its decoupled baseline).
* ``ablation_pht``      — PHT indexing: gshare vs. bimodal vs. GAg
  (the two-level-predictor lineage of §2.1).
* ``ablation_assoc``    — I-cache associativity 1/2/4 under Resume.
* ``ablation_btbupd``   — speculative vs. resolve-time BTB update
  (the paper's §4.1 observation that speculative update costs little).
* ``ablation_ras``      — BTB-predicted returns vs. a return address stack.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.config import BranchConfig, CacheConfig, FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.experiments.base import ExperimentResult, planned
from repro.report.format import Table, average_label, mean

#: A representative cross-language subset (keeps ablations affordable).
ABLATION_BENCHMARKS = ("doduc", "gcc", "li", "groff", "lic")


@planned
def run_ablation_btb(
    runner: SimulationRunner, benchmarks: Sequence[str] = ABLATION_BENCHMARKS
) -> ExperimentResult:
    """Decoupled vs. coupled BTB designs (branch penalty ISPI)."""
    perfect = SimConfig(policy=FetchPolicy.ORACLE, perfect_cache=True)
    table = Table(
        headers=["Program", "Decoupled", "Coupled", "Coupled/Decoupled"],
        title="Ablation: decoupled vs coupled BTB (branch penalty ISPI)",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        decoupled = runner.run(name, perfect)
        coupled = runner.run(
            name, replace(perfect, branch=BranchConfig(coupled=True))
        )
        d = decoupled.ispi("branch")
        c = coupled.ispi("branch")
        data[name] = {"decoupled": d, "coupled": c}
        table.add_row(name, d, c, c / d if d else float("nan"))
    table.add_separator()
    avg_d = mean(v["decoupled"] for v in data.values())
    avg_c = mean(v["coupled"] for v in data.values())
    table.add_row(average_label(data), avg_d, avg_c, avg_c / avg_d)
    return ExperimentResult(
        experiment_id="ablation_btb",
        title="Decoupled vs coupled BTB",
        paper_ref="§2.1 (Calder & Grunwald 94)",
        tables=[table],
        data={"per_benchmark": data},
        notes="Expected: decoupled design yields lower branch penalty "
        "(dynamic direction prediction for BTB-missing branches).",
    )


@planned
def run_ablation_pht(
    runner: SimulationRunner, benchmarks: Sequence[str] = ABLATION_BENCHMARKS
) -> ExperimentResult:
    """PHT indexing schemes (PHT mispredict ISPI)."""
    kinds = ("gshare", "bimodal", "gag")
    perfect = SimConfig(policy=FetchPolicy.ORACLE, perfect_cache=True)
    table = Table(
        headers=["Program", *kinds],
        title="Ablation: PHT indexing (PHT mispredict ISPI, 512 entries)",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        data[name] = {}
        row: list[object] = [name]
        for kind in kinds:
            result = runner.run(
                name, replace(perfect, branch=BranchConfig(pht_kind=kind))
            )
            ispi = result.branch_ispi("pht_mispredict")
            data[name][kind] = ispi
            row.append(ispi)
        table.add_row(*row)
    table.add_separator()
    table.add_row(
        average_label(data), *(mean(d[k] for d in data.values()) for k in kinds)
    )
    return ExperimentResult(
        experiment_id="ablation_pht",
        title="PHT indexing schemes",
        paper_ref="§2.1 (McFarling 93, Yeh & Patt 92)",
        tables=[table],
        data={"per_benchmark": data},
    )


@planned
def run_ablation_assoc(
    runner: SimulationRunner, benchmarks: Sequence[str] = ABLATION_BENCHMARKS
) -> ExperimentResult:
    """I-cache associativity sweep under Resume (8K cache)."""
    assocs = (1, 2, 4)
    table = Table(
        headers=["Program"]
        + [f"miss%-{a}w" for a in assocs]
        + [f"ISPI-{a}w" for a in assocs],
        title="Ablation: I-cache associativity (8K, Resume)",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        data[name] = {}
        miss_cells: list[object] = []
        ispi_cells: list[object] = []
        for assoc in assocs:
            config = replace(
                SimConfig(policy=FetchPolicy.RESUME),
                cache=CacheConfig(assoc=assoc),
            )
            result = runner.run(name, config)
            data[name][f"miss_{assoc}"] = result.miss_rate_percent
            data[name][f"ispi_{assoc}"] = result.total_ispi
            miss_cells.append(result.miss_rate_percent)
            ispi_cells.append(result.total_ispi)
        table.add_row(name, *miss_cells, *ispi_cells)
    return ExperimentResult(
        experiment_id="ablation_assoc",
        title="I-cache associativity",
        paper_ref="beyond the paper (direct-mapped only there)",
        tables=[table],
        data={"per_benchmark": data},
    )


@planned
def run_ablation_btbupd(
    runner: SimulationRunner, benchmarks: Sequence[str] = ABLATION_BENCHMARKS
) -> ExperimentResult:
    """Speculative vs resolve-time BTB update (misfetch ISPI)."""
    perfect = SimConfig(policy=FetchPolicy.ORACLE, perfect_cache=True)
    table = Table(
        headers=["Program", "Speculative", "AtResolve"],
        title="Ablation: BTB update timing (misfetch ISPI)",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        spec = runner.run(name, perfect)
        resolved = runner.run(
            name,
            replace(perfect, branch=BranchConfig(speculative_btb_update=False)),
        )
        data[name] = {
            "speculative": spec.branch_ispi("btb_misfetch"),
            "resolved": resolved.branch_ispi("btb_misfetch"),
        }
        table.add_row(name, data[name]["speculative"], data[name]["resolved"])
    return ExperimentResult(
        experiment_id="ablation_btbupd",
        title="BTB update timing",
        paper_ref="§4.1 (speculative BTB update)",
        tables=[table],
        data={"per_benchmark": data},
        notes="The paper found speculative updating costs little even at "
        "depth 4; the two columns should be close.",
    )


@planned
def run_ablation_pht_size(
    runner: SimulationRunner, benchmarks: Sequence[str] = ABLATION_BENCHMARKS
) -> ExperimentResult:
    """PHT capacity sweep: how much of the paper's mispredict penalty is
    aliasing in its tiny 512-entry table?"""
    sizes = (256, 512, 2048, 8192)
    perfect = SimConfig(policy=FetchPolicy.ORACLE, perfect_cache=True)
    table = Table(
        headers=["Program", *(str(s) for s in sizes)],
        title="Ablation: gshare PHT capacity (PHT mispredict ISPI)",
    )
    data: dict[str, dict[int, float]] = {}
    for name in benchmarks:
        data[name] = {}
        row: list[object] = [name]
        for size in sizes:
            # History width pinned at the paper's 9 bits so the sweep
            # isolates capacity (the default scales history with size,
            # which fragments contexts and confounds the comparison).
            result = runner.run(
                name,
                replace(
                    perfect,
                    branch=BranchConfig(pht_entries=size, history_bits=9),
                ),
            )
            ispi = result.branch_ispi("pht_mispredict")
            data[name][size] = ispi
            row.append(ispi)
        table.add_row(*row)
    table.add_separator()
    table.add_row(
        average_label(data), *(mean(d[s] for d in data.values()) for s in sizes)
    )
    return ExperimentResult(
        experiment_id="ablation_pht_size",
        title="gshare PHT capacity",
        paper_ref="§4.1 (the paper fixes 512 entries)",
        tables=[table],
        data={"per_benchmark": data},
        notes="Expected: monotone improvement with capacity; the gap "
        "between 512 and 8192 is the aliasing share of the penalty.",
    )


@planned
def run_ablation_linesize(
    runner: SimulationRunner, benchmarks: Sequence[str] = ABLATION_BENCHMARKS
) -> ExperimentResult:
    """Line-size sweep, with and without fetchahead prefetching.

    Smith & Hsu studied machines with very large I-cache lines, where the
    *fetchahead distance* becomes critical.  This sweep shows why: with
    32-byte lines prefetching has little room to run ahead; with 128-byte
    lines the prefetcher covers most of the sequential stream.
    """
    line_sizes = (16, 32, 64, 128)
    base = SimConfig(policy=FetchPolicy.RESUME)
    table = Table(
        headers=["Program"]
        + [f"miss%-{ls}B" for ls in line_sizes]
        + [f"ISPI-{ls}B" for ls in line_sizes]
        + [f"ISPI-{ls}B+fa" for ls in line_sizes],
        title="Ablation: I-cache line size (8K, Resume; +fa = fetchahead "
        "prefetch, distance = half a line)",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        data[name] = {}
        miss_cells: list[object] = []
        ispi_cells: list[object] = []
        fa_cells: list[object] = []
        for line_size in line_sizes:
            config = replace(base, cache=CacheConfig(line_size=line_size))
            plain = runner.run(name, config)
            fetchahead = runner.run(
                name,
                replace(
                    config,
                    prefetch=True,
                    prefetch_variant="fetchahead",
                    fetchahead_distance=max(1, line_size // 8),
                ),
            )
            data[name][f"miss_{line_size}"] = plain.miss_rate_percent
            data[name][f"ispi_{line_size}"] = plain.total_ispi
            data[name][f"ispi_fa_{line_size}"] = fetchahead.total_ispi
            miss_cells.append(plain.miss_rate_percent)
            ispi_cells.append(plain.total_ispi)
            fa_cells.append(fetchahead.total_ispi)
        table.add_row(name, *miss_cells, *ispi_cells, *fa_cells)
    return ExperimentResult(
        experiment_id="ablation_linesize",
        title="I-cache line size and fetchahead prefetching",
        paper_ref="§2.2 (Smith & Hsu 92)",
        tables=[table],
        data={"per_benchmark": data},
        notes="Larger lines exploit spatial locality (fewer distinct "
        "misses); fetchahead prefetching recovers most of the sequential "
        "stream once lines are large enough to run ahead in.  The fill "
        "service time is held constant across line sizes to isolate the "
        "locality effect (a real channel would charge wide lines more).",
    )


@planned
def run_ablation_ras(
    runner: SimulationRunner, benchmarks: Sequence[str] = ABLATION_BENCHMARKS
) -> ExperimentResult:
    """Return prediction: BTB entry vs return address stack."""
    perfect = SimConfig(policy=FetchPolicy.ORACLE, perfect_cache=True)
    table = Table(
        headers=["Program", "BTB-returns", "RAS"],
        title="Ablation: return prediction (BTB mispredict ISPI)",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        btb = runner.run(name, perfect)
        ras = runner.run(
            name, replace(perfect, branch=BranchConfig(use_ras=True))
        )
        data[name] = {
            "btb": btb.branch_ispi("btb_mispredict"),
            "ras": ras.branch_ispi("btb_mispredict"),
        }
        table.add_row(name, data[name]["btb"], data[name]["ras"])
    return ExperimentResult(
        experiment_id="ablation_ras",
        title="Return prediction mechanism",
        paper_ref="beyond the paper (PowerPC-style RAS)",
        tables=[table],
        data={"per_benchmark": data},
        notes="A RAS should remove most return-target mispredicts.",
    )

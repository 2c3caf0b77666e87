"""Tables 2 and 3: workload and branch-architecture characterisation.

* **Table 2** — benchmark descriptions: language, the paper's instruction
  counts, our trace lengths, and the dynamic branch percentage
  (paper target vs. measured).
* **Table 3** — I-cache miss rates for 8K/32K direct-mapped caches and the
  branch-architecture penalty ISPI (PHT mispredict, BTB misfetch, BTB
  mispredict) at speculation depths 1 and 4.

Miss rates are measured with the Oracle policy (the paper's miss rates are
right-path characteristics, identical for Oracle/Pessimistic); the branch
columns come from perfect-I-cache runs so branch penalties are isolated.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.config import CacheConfig, FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.experiments.base import ExperimentResult, planned
from repro.program.workloads import LANGUAGE, PAPER_REFERENCE, SUITE, get_spec
from repro.report.format import Table, average_label, mean
from repro.trace.stats import compute_stats


@planned
def run_table2(
    runner: SimulationRunner, benchmarks: Sequence[str] = SUITE
) -> ExperimentResult:
    """Reproduce Table 2 (benchmark characteristics)."""
    table = Table(
        headers=[
            "Program", "Lang", "PaperInst(M)", "TraceInst",
            "%Br", "%Br(paper)", "AvgBlock", "Footprint(KB)",
        ],
        float_format="{:.1f}",
        title="Table 2: benchmark characteristics",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        stats = compute_stats(runner.trace(name))
        ref = PAPER_REFERENCE[name]
        program = runner.program(name)
        table.add_row(
            name,
            LANGUAGE[name],
            float(ref["inst_m"]),
            stats.n_instructions,
            stats.pct_branches,
            float(ref["pct_branches"]),
            stats.avg_block_length,
            program.footprint_bytes / 1024.0,
        )
        data[name] = {
            "pct_branches": stats.pct_branches,
            "pct_branches_paper": float(ref["pct_branches"]),
            "avg_block": stats.avg_block_length,
            "trace_instructions": float(stats.n_instructions),
        }
    return ExperimentResult(
        experiment_id="table2",
        title="Benchmark characteristics",
        paper_ref="Table 2",
        tables=[table],
        data={"per_benchmark": data},
        notes=(
            "Synthetic workloads; paper instruction counts shown for "
            "reference (see DESIGN.md for the substitution rationale)."
        ),
    )


@planned
def run_table3(
    runner: SimulationRunner, benchmarks: Sequence[str] = SUITE
) -> ExperimentResult:
    """Reproduce Table 3 (miss rates and branch-architecture ISPI)."""
    table = Table(
        headers=[
            "Program", "Miss8K%", "Miss32K%",
            "PHT-B1", "PHT-B4", "MisfetchB1", "MisfetchB4",
            "BTBmpB1", "BTBmpB4",
        ],
        title="Table 3: I-cache and branch prediction characteristics",
    )
    oracle_8k = SimConfig(policy=FetchPolicy.ORACLE)
    oracle_32k = replace(oracle_8k, cache=CacheConfig(size_bytes=32 * 1024))
    perfect_b4 = SimConfig(policy=FetchPolicy.ORACLE, perfect_cache=True)
    perfect_b1 = replace(perfect_b4, max_unresolved=1)

    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        r8 = runner.run(name, oracle_8k)
        r32 = runner.run(name, oracle_32k)
        b4 = runner.run(name, perfect_b4)
        b1 = runner.run(name, perfect_b1)
        row = {
            "miss_8k": r8.miss_rate_percent,
            "miss_32k": r32.miss_rate_percent,
            "pht_b1": b1.branch_ispi("pht_mispredict"),
            "pht_b4": b4.branch_ispi("pht_mispredict"),
            "misfetch_b1": b1.branch_ispi("btb_misfetch"),
            "misfetch_b4": b4.branch_ispi("btb_misfetch"),
            "btb_mp_b1": b1.branch_ispi("btb_mispredict"),
            "btb_mp_b4": b4.branch_ispi("btb_mispredict"),
        }
        data[name] = row
        table.add_row(
            name, row["miss_8k"], row["miss_32k"],
            row["pht_b1"], row["pht_b4"],
            row["misfetch_b1"], row["misfetch_b4"],
            row["btb_mp_b1"], row["btb_mp_b4"],
        )
    table.add_separator()
    table.add_row(
        average_label(data),
        mean(d["miss_8k"] for d in data.values()),
        mean(d["miss_32k"] for d in data.values()),
        mean(d["pht_b1"] for d in data.values()),
        mean(d["pht_b4"] for d in data.values()),
        mean(d["misfetch_b1"] for d in data.values()),
        mean(d["misfetch_b4"] for d in data.values()),
        mean(d["btb_mp_b1"] for d in data.values()),
        mean(d["btb_mp_b4"] for d in data.values()),
    )
    return ExperimentResult(
        experiment_id="table3",
        title="I-cache and branch prediction characteristics",
        paper_ref="Table 3",
        tables=[table],
        data={"per_benchmark": data},
        notes=(
            "Miss rates: Oracle policy (right-path misses per instruction). "
            "Branch ISPI columns: perfect-I-cache runs at depths 1 and 4."
        ),
    )


def paper_targets(name: str) -> dict[str, float]:
    """The paper's Table 2/3 reference values for one benchmark."""
    get_spec(name)  # raises for unknown benchmarks
    return dict(PAPER_REFERENCE[name])

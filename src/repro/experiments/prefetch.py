"""Figures 3-4 and Table 7: next-line prefetching.

* **Figure 3** — ISPI breakdown for Oracle / Resume / Pessimistic with and
  without next-line prefetching at the 5-cycle penalty.
* **Figure 4** — the same with the 20-cycle penalty (where prefetching can
  *hurt*, even Oracle, because demand misses wait for in-flight
  prefetches).
* **Table 7** — memory traffic of each prefetching policy relative to
  Oracle without prefetching.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.config import FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.experiments.base import ExperimentResult, planned
from repro.experiments.latency import LONG_MISS_PENALTY_CYCLES
from repro.program.workloads import FIGURE_BENCHMARKS, SUITE
from repro.report.figures import breakdown_chart
from repro.report.format import Table, average_label, mean

#: The subset of policies the paper shows in its prefetch figures.
PREFETCH_POLICIES = (
    FetchPolicy.ORACLE,
    FetchPolicy.RESUME,
    FetchPolicy.PESSIMISTIC,
)


def _prefetch_breakdowns(
    runner: SimulationRunner,
    benchmarks: Sequence[str],
    miss_penalty_cycles: int,
    experiment_id: str,
    title: str,
    paper_ref: str,
    notes: str,
) -> ExperimentResult:
    """Shared machinery for Figures 3 and 4."""
    base = replace(SimConfig(), miss_penalty_cycles=miss_penalty_cycles)
    table = Table(
        headers=["Program"]
        + [p.label for p in PREFETCH_POLICIES]
        + [f"{p.label}+Pref" for p in PREFETCH_POLICIES],
        title=f"{title} — total penalty ISPI",
    )
    groups = []
    data: dict[str, dict[str, dict[str, float]]] = {}
    for name in benchmarks:
        bars = []
        data[name] = {}
        totals: dict[str, float] = {}
        for prefetch in (False, True):
            for policy in PREFETCH_POLICIES:
                config = replace(base, policy=policy, prefetch=prefetch)
                result = runner.run(name, config)
                label = policy.label + ("+Pref" if prefetch else "")
                breakdown = result.ispi_breakdown()
                bars.append((label, breakdown))
                data[name][label] = dict(breakdown)
                totals[label] = result.total_ispi
        table.add_row(
            name,
            *(totals[p.label] for p in PREFETCH_POLICIES),
            *(totals[f"{p.label}+Pref"] for p in PREFETCH_POLICIES),
        )
        groups.append((name, bars))
    chart = breakdown_chart(
        f"{title} ({miss_penalty_cycles}-cycle miss penalty)", groups
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        paper_ref=paper_ref,
        tables=[table],
        charts=[chart],
        data={"per_benchmark": data},
        notes=notes,
    )


@planned
def run_figure3(
    runner: SimulationRunner, benchmarks: Sequence[str] = FIGURE_BENCHMARKS
) -> ExperimentResult:
    """Reproduce Figure 3 (prefetching at the 5-cycle penalty)."""
    return _prefetch_breakdowns(
        runner,
        benchmarks,
        miss_penalty_cycles=5,
        experiment_id="figure3",
        title="Effect of next-line prefetching",
        paper_ref="Figure 3",
        notes=(
            "Headline claims: prefetching improves every policy at the "
            "small penalty and narrows the gaps between policies; Resume "
            "without prefetch ~ Pessimistic with prefetch."
        ),
    )


@planned
def run_figure4(
    runner: SimulationRunner, benchmarks: Sequence[str] = FIGURE_BENCHMARKS
) -> ExperimentResult:
    """Reproduce Figure 4 (prefetching at the 20-cycle penalty)."""
    return _prefetch_breakdowns(
        runner,
        benchmarks,
        miss_penalty_cycles=LONG_MISS_PENALTY_CYCLES,
        experiment_id="figure4",
        title="Next-line prefetching with long miss latency",
        paper_ref="Figure 4",
        notes=(
            "Headline claim: with a long miss latency prefetching can "
            "hurt — even Oracle — because demand misses wait for the "
            "channel behind in-flight prefetches."
        ),
    )


@planned
def run_table7(
    runner: SimulationRunner, benchmarks: Sequence[str] = SUITE
) -> ExperimentResult:
    """Reproduce Table 7 (memory traffic of prefetching policies).

    Each cell is (memory accesses of the policy with next-line
    prefetching) / (memory accesses of Oracle without prefetching).
    """
    base = SimConfig()
    table = Table(
        headers=["Program", *(p.label for p in PREFETCH_POLICIES)],
        title="Table 7: memory traffic with next-line prefetching "
        "(relative to Oracle without prefetch)",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        oracle_plain = runner.run(
            name, replace(base, policy=FetchPolicy.ORACLE, prefetch=False)
        )
        denom = oracle_plain.counters.memory_accesses
        data[name] = {}
        row: list[object] = [name]
        for policy in PREFETCH_POLICIES:
            result = runner.run(name, replace(base, policy=policy, prefetch=True))
            ratio = (
                result.counters.memory_accesses / denom if denom else float("nan")
            )
            data[name][policy.value] = ratio
            row.append(ratio)
        table.add_row(*row)
    table.add_separator()
    table.add_row(
        average_label(data),
        *(
            mean(d[p.value] for d in data.values())
            for p in PREFETCH_POLICIES
        ),
    )
    return ExperimentResult(
        experiment_id="table7",
        title="Effect of prefetching on memory traffic",
        paper_ref="Table 7",
        tables=[table],
        data={"per_benchmark": data},
        notes=(
            "Headline claim: next-line prefetching raises memory traffic "
            "substantially for every policy (paper averages 1.35-1.56x)."
        ),
    )

"""Figure 1: ISPI component breakdown for the baseline architecture.

Five policies x five representative benchmarks, 8K direct-mapped cache,
5-cycle miss penalty, speculation depth 4 — the paper's §5.1.2.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.results import COMPONENTS
from repro.core.runner import SimulationRunner
from repro.experiments.base import ExperimentResult, planned, policy_breakdowns
from repro.program.workloads import FIGURE_BENCHMARKS
from repro.report.figures import breakdown_chart
from repro.report.format import Table


def _breakdown_experiment(
    runner: SimulationRunner,
    benchmarks: Sequence[str],
    config: SimConfig,
    experiment_id: str,
    title: str,
    paper_ref: str,
    notes: str,
) -> ExperimentResult:
    """Shared machinery for Figures 1 and 2."""
    matrix = policy_breakdowns(runner, benchmarks, config, ALL_POLICIES)
    table = Table(
        headers=["Program", *(p.label for p in ALL_POLICIES)],
        title=f"{title} — total penalty ISPI",
    )
    groups = []
    data: dict[str, dict[str, dict[str, float]]] = {}
    for name in benchmarks:
        row: list[object] = [name]
        bars = []
        data[name] = {}
        for policy in ALL_POLICIES:
            result = matrix[name][policy]
            breakdown = result.ispi_breakdown()
            row.append(result.total_ispi)
            bars.append((policy.label, breakdown))
            data[name][policy.value] = dict(breakdown)
        table.add_row(*row)
        groups.append((name, bars))
    chart = breakdown_chart(f"{title} ({config.describe()})", groups)
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        paper_ref=paper_ref,
        tables=[table],
        charts=[chart],
        data={"per_benchmark": data, "components": list(COMPONENTS)},
        notes=notes,
    )


@planned
def run_figure1(
    runner: SimulationRunner, benchmarks: Sequence[str] = FIGURE_BENCHMARKS
) -> ExperimentResult:
    """Reproduce Figure 1 (baseline: 5-cycle miss penalty)."""
    config = SimConfig(policy=FetchPolicy.ORACLE)  # policy swapped per run
    return _breakdown_experiment(
        runner,
        benchmarks,
        config,
        experiment_id="figure1",
        title="Penalty breakdown, base architecture",
        paper_ref="Figure 1",
        notes=(
            "Headline claims at 5-cycle miss penalty: Optimistic < "
            "Pessimistic; Resume best (close to Oracle); Decode ~ "
            "Pessimistic."
        ),
    )

"""Table 5: influence of the depth of speculation.

The full benchmark x policy ISPI matrix at 1, 2, and 4 unresolved
branches (8K direct-mapped, 5-cycle miss penalty).  The paper's claim:
deeper speculation lowers ISPI for every policy, with the largest step
from depth 1 to depth 2.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.config import ALL_POLICIES, SimConfig
from repro.core.runner import SimulationRunner
from repro.experiments.base import ExperimentResult, planned
from repro.program.workloads import SUITE
from repro.report.format import Table, average_label, mean

#: The paper's speculation depths.
DEPTHS = (1, 2, 4)


@planned
def run_table5(
    runner: SimulationRunner,
    benchmarks: Sequence[str] = SUITE,
    depths: Sequence[int] = DEPTHS,
    base_config: SimConfig | None = None,
) -> ExperimentResult:
    """Reproduce Table 5 (speculation-depth sweep).

    *base_config* overrides the paper's baseline configuration before
    the depth sweep is applied on top — used by the cross-backend
    differential harness to render the table from replay-eligible cells.
    """
    base = SimConfig() if base_config is None else base_config
    headers = ["Program"]
    for depth in depths:
        headers.extend(f"B{depth}-{p.label}" for p in ALL_POLICIES)
    table = Table(headers=headers, title="Table 5: effect of speculation depth")
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        row: list[object] = [name]
        data[name] = {}
        for depth in depths:
            config = replace(base, max_unresolved=depth)
            results = runner.run_policies(name, config, ALL_POLICIES)
            for policy in ALL_POLICIES:
                ispi = results[policy].total_ispi
                row.append(ispi)
                data[name][f"B{depth}-{policy.value}"] = ispi
        table.add_row(*row)
    table.add_separator()
    avg_row: list[object] = [average_label(data)]
    for depth in depths:
        for policy in ALL_POLICIES:
            key = f"B{depth}-{policy.value}"
            avg_row.append(mean(d[key] for d in data.values()))
    table.add_row(*avg_row)
    return ExperimentResult(
        experiment_id="table5",
        title="Effect of speculation depth",
        paper_ref="Table 5",
        tables=[table],
        data={"per_benchmark": data, "depths": list(depths)},
        notes=(
            "Headline claim: ISPI decreases with depth for every policy; "
            "the 1->2 step is larger than the 2->4 step."
        ),
    )

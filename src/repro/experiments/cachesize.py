"""Table 6: influence of cache size.

The benchmark x policy ISPI matrix with a 32K direct-mapped I-cache
(5-cycle penalty, depth 4).  The paper's claim: the larger cache
compresses the differences between policies, though applications with a
remaining non-trivial miss rate still benefit modestly from Resume.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.config import ALL_POLICIES, CacheConfig, SimConfig
from repro.core.runner import SimulationRunner
from repro.experiments.base import ExperimentResult, planned
from repro.program.workloads import SUITE
from repro.report.format import Table, average_label, mean

#: The paper's large cache size in bytes.
LARGE_CACHE_BYTES = 32 * 1024


@planned
def run_table6(
    runner: SimulationRunner,
    benchmarks: Sequence[str] = SUITE,
    base_config: SimConfig | None = None,
) -> ExperimentResult:
    """Reproduce Table 6 (32K cache).

    *base_config* overrides the paper's baseline configuration (the
    32K cache is applied on top) — used by the cross-backend
    differential harness to render the table from replay-eligible cells.
    """
    base = SimConfig() if base_config is None else base_config
    config = replace(base, cache=CacheConfig(size_bytes=LARGE_CACHE_BYTES))
    table = Table(
        headers=["Program", *(p.label for p in ALL_POLICIES)],
        title="Table 6: effect of cache size (32K direct mapped, 5-cycle)",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        results = runner.run_policies(name, config, ALL_POLICIES)
        data[name] = {
            policy.value: results[policy].total_ispi for policy in ALL_POLICIES
        }
        table.add_row(name, *(data[name][p.value] for p in ALL_POLICIES))
    table.add_separator()
    table.add_row(
        average_label(data),
        *(
            mean(d[p.value] for d in data.values())
            for p in ALL_POLICIES
        ),
    )
    return ExperimentResult(
        experiment_id="table6",
        title="Effect of cache size",
        paper_ref="Table 6",
        tables=[table],
        data={"per_benchmark": data},
        notes=(
            "Headline claim: with a 32K cache the policy differences "
            "shrink (Resume-vs-Pessimistic gap smaller than at 8K)."
        ),
    )

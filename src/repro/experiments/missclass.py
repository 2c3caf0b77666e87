"""Table 4: categorisation of I-cache misses under speculative execution.

Runs the Optimistic policy with the shadow-Oracle classifier and reports
Both Miss / Spec Pollute / Spec Prefetch / Wrong Path percentages plus the
Optimistic-vs-Oracle memory traffic ratio, exactly as in the paper's
Table 4 (baseline architecture: 8K direct-mapped, depth 4, no prefetch).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.config import FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult, planned
from repro.program.workloads import SUITE
from repro.report.format import Table, average_label, mean


@planned
def run_table4(
    runner: SimulationRunner, benchmarks: Sequence[str] = SUITE
) -> ExperimentResult:
    """Reproduce Table 4 (miss categorisation and traffic ratio)."""
    config = replace(SimConfig(policy=FetchPolicy.OPTIMISTIC), classify=True)
    table = Table(
        headers=["Program", "BM", "SPo", "SPr", "WP", "TR"],
        title="Table 4: categorisation of miss ratios "
        "(BM=Both Miss, SPo=Spec Pollute, SPr=Spec Prefetch, "
        "WP=Wrong Path, TR=Traffic Ratio)",
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        result = runner.run(name, config)
        cls = result.classification
        if cls is None:
            raise ExperimentError(f"classification missing for {name}")
        data[name] = {
            "both_miss": cls.both_miss,
            "spec_pollute": cls.spec_pollute,
            "spec_prefetch": cls.spec_prefetch,
            "wrong_path": cls.wrong_path,
            "traffic_ratio": cls.traffic_ratio,
        }
        table.add_row(
            name, cls.both_miss, cls.spec_pollute, cls.spec_prefetch,
            cls.wrong_path, cls.traffic_ratio,
        )
    table.add_separator()
    table.add_row(
        average_label(data),
        mean(d["both_miss"] for d in data.values()),
        mean(d["spec_pollute"] for d in data.values()),
        mean(d["spec_prefetch"] for d in data.values()),
        mean(d["wrong_path"] for d in data.values()),
        mean(d["traffic_ratio"] for d in data.values()),
    )
    return ExperimentResult(
        experiment_id="table4",
        title="Categorisation of miss ratios",
        paper_ref="Table 4",
        tables=[table],
        data={"per_benchmark": data},
        notes=(
            "Percentages are misses per correct-path instruction. "
            "Headline claim: Spec Prefetch > Spec Pollute (wrong-path "
            "prefetching beats pollution), Wrong Path misses substantial."
        ),
    )

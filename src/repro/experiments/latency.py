"""Figure 2: influence of a long (20-cycle) I-cache miss penalty.

Same breakdown as Figure 1 but with the high miss latency, where the
paper's conclusion flips: the conservative policies catch up with (and for
C/C++ programs overtake) the aggressive ones, because wrong-path fills tie
up the memory channel exactly when the right path needs it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.config import FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.experiments.base import ExperimentResult, planned
from repro.experiments.baseline import _breakdown_experiment
from repro.program.workloads import FIGURE_BENCHMARKS

#: The paper's "high" miss penalty in cycles.
LONG_MISS_PENALTY_CYCLES = 20


@planned
def run_figure2(
    runner: SimulationRunner, benchmarks: Sequence[str] = FIGURE_BENCHMARKS
) -> ExperimentResult:
    """Reproduce Figure 2 (20-cycle miss penalty)."""
    config = replace(
        SimConfig(policy=FetchPolicy.ORACLE),
        miss_penalty_cycles=LONG_MISS_PENALTY_CYCLES,
    )
    result = _breakdown_experiment(
        runner,
        benchmarks,
        config,
        experiment_id="figure2",
        title="Penalty breakdown, long miss latency",
        paper_ref="Figure 2",
        notes=(
            "Headline claims at 20-cycle miss penalty: Pessimistic "
            "becomes competitive with / better than Optimistic for the "
            "C and C++ programs; Resume ~ Pessimistic on average but with "
            "more memory traffic."
        ),
    )
    return result

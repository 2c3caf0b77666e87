"""The paper's primary contribution: the speculative fetch-policy engine.

:func:`~repro.core.engine.simulate` runs one (program, trace, config)
triple; :class:`~repro.core.runner.SimulationRunner` orchestrates sweeps
across benchmarks and policies with workload caching.
"""

from repro.core.engine import FetchEngine, build_branch_unit, simulate
from repro.core.results import (
    COMPONENTS,
    EngineCounters,
    PenaltyAccumulator,
    SimulationResult,
)
from repro.core.runner import DEFAULT_TRACE_LENGTH, SimulationRunner, WorkloadRun
from repro.core.wrongpath import iter_wrong_path_lines

__all__ = [
    "COMPONENTS",
    "DEFAULT_TRACE_LENGTH",
    "EngineCounters",
    "FetchEngine",
    "PenaltyAccumulator",
    "SimulationResult",
    "SimulationRunner",
    "WorkloadRun",
    "build_branch_unit",
    "iter_wrong_path_lines",
    "simulate",
]

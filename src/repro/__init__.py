"""repro — reproduction of *Instruction Cache Fetch Policies for
Speculative Execution* (Lee, Baer, Calder, Grunwald; ISCA 1995).

A trace-driven simulator of a 4-wide speculative front end with a blocking
instruction cache, the paper's five I-cache fetch policies (Oracle,
Optimistic, Resume, Pessimistic, Decode), its branch architecture
(decoupled BTB + gshare PHT with resolution-delayed updates), next-line
prefetching, and a synthetic 13-benchmark suite standing in for the
paper's ATOM-traced programs.

Quick start::

    from repro import SimulationRunner, paper_baseline, FetchPolicy

    runner = SimulationRunner()
    result = runner.run("gcc", paper_baseline(FetchPolicy.RESUME))
    print(result.total_ispi, result.ispi_breakdown())

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper-vs-
measured record of every reproduced table and figure.
"""

from repro.config import (
    ALL_POLICIES,
    BranchConfig,
    CacheConfig,
    FetchPolicy,
    SimConfig,
    paper_baseline,
)
from repro.core import (
    COMPONENTS,
    FetchEngine,
    SimulationResult,
    SimulationRunner,
    simulate,
)
from repro.errors import (
    ConfigError,
    DecodeError,
    ExperimentError,
    ObservabilityError,
    ProgramError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    NullSink,
    Observer,
    PhaseProfiler,
    RingBufferSink,
)
from repro.program import (
    FIGURE_BENCHMARKS,
    SUITE,
    Program,
    ProgramBuilder,
    WorkloadSpec,
    build_workload,
    synthesize,
)
from repro.trace import Trace, generate_trace

__version__ = "1.0.0"

__all__ = [
    "ALL_POLICIES",
    "BranchConfig",
    "CacheConfig",
    "COMPONENTS",
    "ConfigError",
    "DecodeError",
    "ExperimentError",
    "FIGURE_BENCHMARKS",
    "FetchEngine",
    "FetchPolicy",
    "JsonlSink",
    "MetricsRegistry",
    "NullSink",
    "ObservabilityError",
    "Observer",
    "PhaseProfiler",
    "Program",
    "RingBufferSink",
    "ProgramBuilder",
    "ProgramError",
    "ReproError",
    "SUITE",
    "SimConfig",
    "SimulationError",
    "SimulationResult",
    "SimulationRunner",
    "Trace",
    "TraceError",
    "WorkloadSpec",
    "__version__",
    "build_workload",
    "generate_trace",
    "paper_baseline",
    "simulate",
    "synthesize",
]

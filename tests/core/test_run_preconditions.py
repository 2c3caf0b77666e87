"""Every engine backend rejects the same bad ``run`` inputs.

The event loop, the adaptive driver and the vector backend share one
precondition check (``repro.core.engine.check_run``): the trace must
come from the engine's program, and the warmup must be non-negative
and leave part of the trace to measure.
"""

from __future__ import annotations

import pytest

from repro.branch.stream import build_stream
from repro.config import SimConfig
from repro.core.adaptive import AdaptiveEngine
from repro.core.engine import FetchEngine, build_engine
from repro.core.vector import VectorEngine
from repro.errors import SimulationError
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace

N = 2_000

BACKENDS = {
    "event": (SimConfig(), FetchEngine),
    "adaptive": (
        SimConfig(policy_schedule="oracle", adaptive_interval=500),
        AdaptiveEngine,
    ),
    "vector": (
        SimConfig(perfect_cache=True),
        VectorEngine,
    ),
}


@pytest.fixture(scope="module")
def workloads():
    li = build_workload("li", seed=7)
    doduc = build_workload("doduc", seed=7)
    return li, generate_trace(li, N, seed=7), generate_trace(doduc, N, seed=7)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_bad_run_inputs_rejected(backend, workloads):
    program, trace, other_trace = workloads
    config, engine_type = BACKENDS[backend]
    stream = (
        build_stream(program, trace, config) if backend == "vector" else None
    )

    def engine():
        built = build_engine(program, config, stream=stream)
        assert type(built) is engine_type
        return built

    with pytest.raises(SimulationError, match="trace is for 'doduc'"):
        engine().run(other_trace, 0)
    with pytest.raises(SimulationError, match="negative warmup -1"):
        engine().run(trace, -1)
    with pytest.raises(SimulationError, match="consumes the whole trace"):
        engine().run(trace, trace.n_instructions)
    # The same engine inputs with a valid warmup run.
    assert engine().run(trace, 0).program == "li"

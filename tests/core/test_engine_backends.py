"""Cross-backend differential harness: vector backend == event loop.

The tentpole claim of the vectorized batch backend
(:mod:`repro.core.vector`): for every vector-eligible cell, the vector
backend that ``engine_backend="auto"`` picks given a stream produces
**bit-identical** :class:`SimulationResult`s, metrics dictionaries, and
rendered experiment tables to the event loop (``"event"``).  The matrix
below covers every fetch policy x cache size x associativity x prefetch
mode x warmup; the prefetch and stream-buffer columns are
vector-ineligible by design, so those cells assert that ``build_engine``
picks the event loop instead of skipping silently.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.branch.stream import build_stream
from repro.config import ALL_POLICIES, CacheConfig, SimConfig
from repro.core.engine import build_engine, simulate
from repro.core.runner import SimulationRunner
from repro.core.vector import vector_eligible
from repro.experiments.cachesize import run_table6
from repro.experiments.depth import run_table5
from repro.obs.observer import Observer
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace

BENCHMARK = "li"
TRACE_LENGTH = 4_000
SEED = 9

SIZES = (2 * 1024, 8 * 1024, 32 * 1024)
ASSOCS = (1, 2, 4)
#: Prefetch modes: only "none" is vector-eligible; the other two pin the
#: event loop (timing-coupled prefetchers only exist there).
PREFETCH = {
    "none": {},
    "next-line": {"prefetch": True},
    "stream-buffer": {"stream_buffers": 2},
}
WARMUPS = (0, 1_000)


def arch(**kwargs) -> SimConfig:
    return SimConfig(branch_schedule="architectural", **kwargs)


@pytest.fixture(scope="module")
def workload():
    runner = SimulationRunner(trace_length=TRACE_LENGTH, seed=SEED, warmup=0)
    prepared = runner.prepared(BENCHMARK)
    return prepared.program, prepared.trace


@pytest.fixture(scope="module")
def stream(workload):
    program, trace = workload
    return build_stream(program, trace, arch())


def _run_both(program, trace, config, stream, warmup):
    """(event result, vector result, event metrics, vector metrics)."""
    obs_event, obs_vector = Observer(), Observer()
    event = simulate(
        program,
        trace,
        replace(config, engine_backend="event"),
        warmup=warmup,
        observer=obs_event,
        stream=stream,
    )
    vector_engine = build_engine(
        program,
        replace(config, engine_backend="auto"),
        observer=obs_vector,
        stream=stream,
    )
    assert vector_engine.backend == "vector"
    vector = vector_engine.run(trace, warmup_instructions=warmup)
    return event, vector, obs_event.metrics_dict(), obs_vector.metrics_dict()


# -- the matrix --------------------------------------------------------------


@pytest.mark.parametrize("warmup", WARMUPS)
@pytest.mark.parametrize("prefetch_mode", sorted(PREFETCH))
@pytest.mark.parametrize("assoc", ASSOCS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_matrix_cell(workload, stream, policy, size, assoc, prefetch_mode, warmup):
    program, trace = workload
    config = arch(
        policy=policy,
        cache=CacheConfig(size_bytes=size, assoc=assoc),
        **PREFETCH[prefetch_mode],
    )
    if not vector_eligible(config):
        engine = build_engine(program, config, stream=stream)
        assert engine.backend == "event"
        pytest.skip(f"vector-ineligible ({prefetch_mode}): event loop asserted")
    event, vector, metrics_event, metrics_vector = _run_both(
        program, trace, config, stream, warmup
    )
    # Everything but the backend knob itself must match, bit for bit.
    assert event == replace(vector, config=event.config)
    assert metrics_event == metrics_vector


def test_perfect_cache_cells(workload, stream):
    program, trace = workload
    for policy in ALL_POLICIES:
        for warmup in WARMUPS:
            config = arch(policy=policy, perfect_cache=True)
            event, vector, metrics_event, metrics_vector = _run_both(
                program, trace, config, stream, warmup
            )
            assert event == replace(vector, config=event.config)
            assert metrics_event == metrics_vector


# -- backend selection -------------------------------------------------------


def test_auto_picks_vector_when_eligible(workload, stream):
    program, _ = workload
    engine = build_engine(program, arch(), stream=stream)
    assert engine.backend == "vector"


def test_no_stream_falls_back(workload):
    program, _ = workload
    engine = build_engine(program, arch())
    assert engine.backend == "event"


def test_event_backend_is_forced(workload, stream):
    program, _ = workload
    engine = build_engine(program, arch(engine_backend="event"), stream=stream)
    assert engine.backend == "event"


def test_enabled_sink_falls_back(workload, stream, tmp_path):
    from repro.obs.events import JsonlSink

    program, _ = workload
    observer = Observer(sink=JsonlSink(str(tmp_path / "events.jsonl")))
    try:
        engine = build_engine(
            program, arch(), observer=observer, stream=stream
        )
        assert engine.backend == "event"
    finally:
        observer.close()


def test_timing_schedule_falls_back(workload):
    # Timing-coupled cells are not even replay-eligible: no stream ever
    # reaches build_engine, and the event loop runs.
    program, _ = workload
    engine = build_engine(program, SimConfig())
    assert engine.backend == "event"


# -- stress cells: the scalar mirrors where they carry the time -------------
#
# The li matrix above is hit-dominated, so wrong-path walks, the
# fill-station mirror, and miss handling barely run.  These cells pin
# them where they dominate: a crippled predictor (constant redirects ->
# walks and short segments) and a tiny cache (constant misses -> station
# traffic and fills).  Each cell runs at three speculation depths —
# gate-dense (1), the default (None), and effectively unbounded (the
# gate never fires) — so the mirrors' depth-gate bookkeeping is
# differentially pinned against the event loop at both extremes, not
# just at the matrix's default depth.

STRESS_DEPTHS = (1, None, 1 << 20)


def _assert_stress_cell(program, trace, config, depth):
    # Depth shapes the architectural schedule, so each depth replays
    # its own stream.
    if depth is not None:
        config = replace(config, max_unresolved=depth)
    stream = build_stream(program, trace, config)
    event, vector, metrics_event, metrics_vector = _run_both(
        program, trace, config, stream, warmup=0
    )
    assert event == replace(vector, config=event.config)
    assert metrics_event == metrics_vector


@pytest.fixture(scope="module")
def redirect_dense():
    """li under a crippled predictor: tiny bimodal PHT, 2-entry BTB."""
    from repro.config import BranchConfig

    program = build_workload(BENCHMARK)
    trace = generate_trace(program, TRACE_LENGTH, seed=SEED)
    branch = BranchConfig(
        btb_entries=2, btb_assoc=1, pht_kind="bimodal", pht_entries=2
    )
    return program, trace, arch(branch=branch)


@pytest.mark.parametrize("depth", STRESS_DEPTHS)
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_redirect_dense_cell(redirect_dense, policy, depth):
    program, trace, base = redirect_dense
    _assert_stress_cell(program, trace, replace(base, policy=policy), depth)


@pytest.mark.parametrize("depth", STRESS_DEPTHS)
@pytest.mark.parametrize("assoc", (1, 2))
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_miss_dense_cell(workload, policy, assoc, depth):
    program, trace = workload
    config = arch(policy=policy, cache=CacheConfig(size_bytes=1_024, assoc=assoc))
    _assert_stress_cell(program, trace, config, depth)


# -- rendered experiment tables ---------------------------------------------


@pytest.mark.slow
def test_table5_rows_identical():
    renders = []
    for backend in ("event", "auto"):
        base = arch(engine_backend=backend)
        runner = SimulationRunner(
            trace_length=TRACE_LENGTH, seed=SEED, warmup=500
        )
        result = run_table5(
            runner, benchmarks=(BENCHMARK,), depths=(1, 4), base_config=base
        )
        renders.append(result.tables[0].render())
    assert renders[0] == renders[1]


@pytest.mark.slow
def test_table6_rows_identical():
    renders = []
    for backend in ("event", "auto"):
        base = arch(engine_backend=backend)
        runner = SimulationRunner(
            trace_length=TRACE_LENGTH, seed=SEED, warmup=500
        )
        result = run_table6(runner, benchmarks=(BENCHMARK,), base_config=base)
        renders.append(result.tables[0].render())
    assert renders[0] == renders[1]

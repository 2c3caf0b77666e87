"""Property-based tests of prediction-stream replay.

Random programs, random replay-eligible configurations: a stream
recorded under one cell's cache and policy must replay bit-identically
in a cell with another cache and policy — results *and* published
metrics — against that cell's own recording, across associativities,
cache sizes, prefetch and warmup prefixes.  That is the cache and
policy independence ``stream_digest`` relies on.  (The comparison with
the live predictor is pinned in ``tests/core/test_arch_pins.py``, on a
fixed sample of these cells.)  A second property pins the
serial-vs-pooled metric contract: a sweep planned onto the plan pool
publishes the serial observed sweep's registry, stream counters
included, plus only the ``sweep.plan_*`` counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ALL_POLICIES, CacheConfig, SimConfig
from repro.core.engine import simulate
from repro.branch.stream import build_stream
from repro.obs import Observer
from repro.program import BiasedBehaviour, LoopBehaviour
from repro.trace.generator import generate_trace
from tests.conftest import make_diamond_program, without_plan_counters


@st.composite
def random_programs(draw):
    """A random but valid single-function diamond/loop program."""
    arms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            behaviour = BiasedBehaviour(draw(st.floats(0.0, 1.0)))
        else:
            behaviour = LoopBehaviour(draw(st.integers(1, 10)))
        arms.append((
            draw(st.integers(min_value=1, max_value=10)),
            behaviour,
            draw(st.integers(min_value=1, max_value=8)),
            draw(st.integers(min_value=1, max_value=8)),
        ))
    return make_diamond_program(draw(st.integers(min_value=1, max_value=10)), arms)


@st.composite
def real_cache_configs(draw):
    """A replay-eligible real-cache configuration (architectural schedule)."""
    return SimConfig(
        policy=draw(st.sampled_from(ALL_POLICIES)),
        cache=CacheConfig(
            size_bytes=draw(st.sampled_from([1024, 8192])),
            assoc=draw(st.sampled_from([1, 2, 4])),
        ),
        prefetch=draw(st.booleans()),
        branch_schedule="architectural",
    )


@st.composite
def cell_pairs(draw):
    """(program, trace, recording config, replaying config, warmup)."""
    program = draw(random_programs())
    n = draw(st.integers(min_value=200, max_value=2_000))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    trace = generate_trace(program, n, seed=seed)
    warmup = draw(st.integers(min_value=0, max_value=n // 2))
    return program, trace, draw(real_cache_configs()), draw(real_cache_configs()), warmup


@given(cell_pairs())
@settings(max_examples=40, deadline=None)
def test_stream_replays_across_cells(cell):
    program, trace, recorded, replayed, warmup = cell
    stream = build_stream(program, trace, recorded)
    own_obs = Observer()
    shared_obs = Observer()
    # Given no stream, the cell records its own.
    own = simulate(program, trace, replayed, warmup=warmup, observer=own_obs)
    shared = simulate(
        program, trace, replayed, warmup=warmup, observer=shared_obs,
        stream=stream,
    )
    assert own == shared
    assert own_obs.registry.as_dict() == shared_obs.registry.as_dict()


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=500, max_value=1_500),
)
@settings(max_examples=5, deadline=None)
def test_serial_and_parallel_registries_agree_under_replay(seed, n, tmp_path_factory):
    import pytest

    import repro.core.runner as runner_module
    from repro.core.runner import SimulationRunner
    from repro.obs.profile import PhaseProfiler

    tmp = tmp_path_factory.mktemp("replay-registries")
    jobs = [
        ("li", SimConfig(policy=policy, branch_schedule="architectural"))
        for policy in ALL_POLICIES[:3]
    ]
    obs = Observer(profiler=PhaseProfiler())
    serial = SimulationRunner(
        trace_length=n, seed=seed, warmup=0, observer=obs,
        cache_dir=str(tmp / f"s{seed}-{n}"),
    )
    serial_results = [serial.run(name, config) for name, config in jobs]
    pooled_obs = Observer(profiler=PhaseProfiler())
    pooled = SimulationRunner(
        trace_length=n, seed=seed, warmup=0, observer=pooled_obs,
        cache_dir=str(tmp / f"p{seed}-{n}"),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner_module, "_plan_workers", lambda: 2)
        assert pooled.run_jobs(jobs) == serial_results
    assert pooled_obs.registry.value("sweep.plan_tasks") == len(jobs)
    assert without_plan_counters(pooled_obs.registry) == obs.registry.as_dict()

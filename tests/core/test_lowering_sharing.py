"""Lowered-state sharing: one lowering per object, across engines and forks.

Replay, vector and event-loop state lowering (stream record lists,
trace/probe/walk arrays, the event loop's fetch program) is pure
read-only data, so a policy sweep over one trace and the
``AdaptiveEngine`` shadow/oracle forks of one engine must pay for each
lowering exactly once.  These tests pin that with the module test hooks
(:func:`repro.branch.stream.stream_lowerings`,
:data:`repro.core.lowering.LOWERING_COUNTS`) — a regression here
silently multiplies sweep setup cost by the fork/engine count.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.branch.stream import build_stream, stream_lowerings
from repro.config import ALL_POLICIES, CacheConfig, FetchPolicy, SimConfig
from repro.core import lowering, vector_kernels
from repro.core.engine import build_engine, simulate
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace

TRACE_LENGTH = 4_000
INTERVAL = 1_000


def arch(**kwargs) -> SimConfig:
    return SimConfig(branch_schedule="architectural", **kwargs)


@pytest.fixture(scope="module")
def workload():
    program = build_workload("li")
    trace = generate_trace(program, TRACE_LENGTH, seed=21)
    return program, trace


@pytest.fixture(scope="module")
def stream(workload):
    program, trace = workload
    return build_stream(program, trace, arch())


def test_replay_unit_lowering_shared_across_engines(workload, stream):
    program, trace = workload
    before = stream_lowerings()
    for policy in (FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC):
        simulate(
            program,
            trace,
            arch(policy=policy, engine_backend="event"),
            stream=stream,
        )
    after = stream_lowerings()
    # The fixture stream may already be in the memo from an earlier test;
    # two more engines over the same stream object add at most one lowering.
    assert after - before <= 1
    simulate(program, trace, arch(engine_backend="event"), stream=stream)
    assert stream_lowerings() == after


def test_adaptive_forks_share_stream_lowering(workload, stream):
    program, trace = workload
    config = arch(
        policy_schedule="oracle",
        adaptive_interval=INTERVAL,
        adaptive_policies=(FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
    )
    simulate(program, trace, config, stream=stream)  # memo warm for stream
    before = stream_lowerings()
    result = simulate(program, trace, config, stream=stream)
    assert result.metadata["shadow_runs"] > 0
    # Every shadow/oracle fork re-lowered the stream before PR 10.
    assert stream_lowerings() == before


def test_fork_shares_lowered_lists_copies_stats(workload, stream):
    program, _ = workload
    engine = build_engine(program, arch(engine_backend="event"), stream=stream)
    fork = engine.fork()
    assert fork.unit is not engine.unit
    assert fork.unit.stats is not engine.unit.stats
    assert fork.unit.stream is engine.unit.stream
    for name in ("_outcome", "_penalty", "_wp_pc", "_wp_off"):
        assert getattr(fork.unit, name) is getattr(engine.unit, name)


def test_vector_lowerings_shared_across_policy_sweep(workload, stream):
    program, trace = workload
    config = arch(engine_backend="vector")
    simulate(program, trace, config, stream=stream)  # memos warm
    before = dict(lowering.LOWERING_COUNTS)
    for policy in (
        FetchPolicy.OPTIMISTIC,
        FetchPolicy.RESUME,
        FetchPolicy.PESSIMISTIC,
    ):
        simulate(
            program, trace, replace(config, policy=policy), stream=stream
        )
    # Same trace object, same line size, same geometry: zero re-lowering.
    assert lowering.LOWERING_COUNTS == before


def test_distinct_trace_objects_are_not_conflated(workload):
    """Identity keying must never serve one trace's lowering for another,
    even when name/seed/shape collide (the memo-poisoning regression)."""
    program, _ = workload
    a = generate_trace(program, 2_000, seed=5)
    b = generate_trace(program, 2_000, seed=5)
    pa = vector_kernels.probe_arrays(a, 32)
    pb = vector_kernels.probe_arrays(b, 32)
    assert pa is not pb
    assert vector_kernels.probe_arrays(a, 32) is pa


def _fetch_lowerings() -> int:
    return lowering.LOWERING_COUNTS["fetch"]


def test_fetch_program_built_once_across_policy_sweep(workload):
    program, _ = workload
    # A fresh trace object, so the sweep's first cell is the one lowering.
    trace = generate_trace(program, TRACE_LENGTH, seed=22)
    before = _fetch_lowerings()
    engines = []
    for policy in ALL_POLICIES:
        engine = build_engine(program, SimConfig(policy=policy))
        engine.run(trace)
        engines.append(engine)
    assert len(engines) == 5
    assert _fetch_lowerings() == before + 1
    assert all(e.plans(trace) is engines[0].plans(trace) for e in engines)
    # The lowering is per line size: another one is another lowering.
    simulate(program, trace, SimConfig(cache=CacheConfig(line_size=64)))
    assert _fetch_lowerings() == before + 2


@pytest.mark.parametrize("schedule", ["oracle", "tournament"])
def test_adaptive_forks_share_fetch_program(workload, schedule):
    program, _ = workload
    trace = generate_trace(program, TRACE_LENGTH, seed=23)
    config = SimConfig(
        policy_schedule=schedule,
        adaptive_interval=INTERVAL,
        adaptive_policies=(FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
    )
    before = _fetch_lowerings()
    engine = build_engine(program, config)
    result = engine.run(trace)
    assert result.metadata["shadow_runs"] > 0
    # Every shadow/oracle fork ran on the committed engine's lowering.
    assert _fetch_lowerings() == before + 1
    assert engine.inner.fork().plans(trace) is engine.inner.plans(trace)


def test_distinct_trace_objects_get_their_own_fetch_program(workload):
    """Equal-content traces are distinct keys (identity, as for the
    vector lowering), and so are distinct programs of one name."""
    program, _ = workload
    a = generate_trace(program, 2_000, seed=5)
    b = generate_trace(program, 2_000, seed=5)
    engine = build_engine(program, SimConfig())
    assert engine.plans(a) is not engine.plans(b)
    assert engine.plans(a) == engine.plans(b)
    # Within one program, equal records share one interned plan.
    plans = engine.plans(a)
    first = {}
    for record, plan in zip(a.records, plans):
        assert first.setdefault(record, plan) is plan
    assert len({id(plan) for plan in plans}) == len(first) < len(plans)
    assert engine.plans(a) is engine.plans(a)
    twin = build_engine(build_workload("li"), SimConfig())
    assert twin.program is not program
    assert twin.plans(a) is not engine.plans(a)


def test_lowerings_die_with_their_trace(workload):
    """A pool worker loads a fresh trace per job: the memos must not keep
    dead traces (or their lowerings) alive."""
    program, _ = workload
    trace = generate_trace(program, 2_000, seed=31)
    simulate(program, trace, SimConfig())
    vector_kernels.probe_arrays(trace, 32)
    fetch_key = (id(trace), id(program.image), 32)
    assert fetch_key in lowering._fetch_memo
    dead = weakref.ref(trace)
    del trace
    gc.collect()
    assert dead() is None
    assert fetch_key not in lowering._fetch_memo
    assert all(key[0] != fetch_key[0] for key in vector_kernels._probe_memo)

"""Lowered-state sharing: one lowering per object, across engines and forks.

Replay, vector and event-loop state (a stream's recorded results and
their line-split walks, per-record trace arrays, the event loop's fetch
program and its flat probe list) is pure read-only data, so a policy
sweep over one trace and the ``AdaptiveEngine`` shadow/oracle forks of
one engine must pay for each lowering exactly once, and a sweep over
cache geometries at one line size must pay for no per-geometry state.
A replayed stream needs no lowering at all: every engine and fork hands
out the stream's own result list.  These tests pin that with identity
checks, the module test hook (:data:`repro.core.lowering.LOWERING_COUNTS`)
and ``tracemalloc`` — a regression here silently multiplies sweep setup
cost and memory by the fork/engine/geometry count.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from repro.branch.stream import ReplayBranchUnit, build_stream, recorded_walks
from repro.config import ALL_POLICIES, CacheConfig, FetchPolicy, SimConfig
from repro.core import lowering
from repro.core.engine import FetchEngine, build_engine, simulate
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace

TRACE_LENGTH = 4_000
INTERVAL = 1_000

#: The paper's cache-geometry sweep: {4K, 8K, 32K} x {1, 2}-way, one
#: line size.  Five distinct set counts (8K/2-way shares 4K/1-way's).
GEOMETRIES = tuple(
    CacheConfig(size_bytes=size, assoc=assoc)
    for size in (4096, 8192, 32768)
    for assoc in (1, 2)
)


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
    units = []
    for policy in (FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC):
        engine = build_engine(
            program, arch(policy=policy, engine_backend="event"), stream=stream
        )
        engine.run(trace)
        units.append(engine.unit)
    # Every engine replays the stream's own result list: no copy, no
    # per-engine lowering.
    assert all(unit._results is stream.results for unit in units)


def test_adaptive_forks_share_stream_lowering(workload, stream, monkeypatch):
    program, trace = workload
    config = arch(
        policy_schedule="oracle",
        adaptive_interval=INTERVAL,
        adaptive_policies=(FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
    )
    forks = []
    fork = FetchEngine.fork

    def spy(engine):
        forks.append(fork(engine))
        return forks[-1]

    monkeypatch.setattr(FetchEngine, "fork", spy)
    result = simulate(program, trace, config, stream=stream)
    assert result.metadata["shadow_runs"] > 0
    assert forks
    # Every shadow/oracle fork replays the stream's own result list.
    assert all(f.unit._results is stream.results for f in forks)


def test_fork_shares_lowered_lists_copies_stats(workload, stream):
    program, _ = workload
    config = arch(engine_backend="event")
    engine = build_engine(program, config, stream=stream)
    line_size = config.cache.line_size
    engine.unit.iter_last_wrong_path_lines(line_size)  # split the walks
    assert engine.unit._walks is recorded_walks(stream, line_size)
    fork = engine.fork()
    assert fork.unit is not engine.unit
    assert fork.unit.stats is not engine.unit.stats
    assert fork.unit.stream is engine.unit.stream
    assert fork.unit._results is engine.unit._results is stream.results
    assert fork.unit._walks is engine.unit._walks


def test_vector_lowerings_shared_across_policy_sweep(workload, stream):
    program, trace = workload
    config = arch()
    simulate(program, trace, config, stream=stream)  # memos warm
    columns = stream.redirect_columns
    assert columns is not None
    before = dict(lowering.LOWERING_COUNTS)
    for policy in (
        FetchPolicy.OPTIMISTIC,
        FetchPolicy.RESUME,
        FetchPolicy.PESSIMISTIC,
    ):
        simulate(
            program, trace, replace(config, policy=policy), stream=stream
        )
    # Same trace object, same line size, same geometry: zero re-lowering,
    # and the stream's redirect columns are derived once.
    assert lowering.LOWERING_COUNTS == before
    assert stream.redirect_columns is columns


def test_distinct_trace_objects_are_not_conflated(workload):
    """Identity keying must never serve one trace's lowering for another,
    even when name/seed/shape collide (the memo-poisoning regression)."""
    program, _ = workload
    a = generate_trace(program, 2_000, seed=5)
    b = generate_trace(program, 2_000, seed=5)
    pa = lowering.flat_probes(a, program.image, 32)
    pb = lowering.flat_probes(b, program.image, 32)
    assert pa is not pb
    assert lowering.flat_probes(a, program.image, 32) is pa


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
    lowering.flat_probes(trace, program.image, 32)
    fetch_key = (id(trace), id(program.image), 32)
    assert fetch_key in lowering._fetch_memo
    dead = weakref.ref(trace)
    del trace
    gc.collect()
    assert dead() is None
    assert fetch_key not in lowering._fetch_memo
    assert all(key[0] != fetch_key[0] for key in lowering._probe_memo)


def test_stream_recording_keeps_no_fetch_program(workload):
    """A recording leaves no lowering memoized (a runner keeps the trace
    for life), and leaves one a cell had memoized before in place."""
    program, _ = workload
    trace = generate_trace(program, 2_000, seed=32)
    held = dict(lowering._fetch_memo)
    build_stream(program, trace, arch())
    assert lowering._fetch_memo == held
    plans = build_engine(program, SimConfig()).plans(trace)
    held = dict(lowering._fetch_memo)
    build_stream(program, trace, arch())
    assert lowering._fetch_memo == held
    assert held[(id(trace), id(program.image), 32)].plans is plans


def _vector_sweep(program, trace, stream, geometries) -> None:
    for cache in geometries:
        for policy in ALL_POLICIES:
            engine = build_engine(
                program, arch(cache=cache, policy=policy), stream=stream
            )
            assert engine.backend == "vector"
            engine.run(trace)


def test_geometry_sweep_shares_one_lowering_per_line_size(
    workload, monkeypatch
):
    """The vector mirror and the event loop read one probe lowering and
    one walk lowering per line size, whatever the cache geometry."""
    program, _ = workload
    trace = generate_trace(program, TRACE_LENGTH, seed=24)
    stream = build_stream(program, trace, arch())
    counts = lowering.LOWERING_COUNTS
    before = dict(counts)
    _vector_sweep(program, trace, stream, GEOMETRIES)
    assert counts["probe"] == before["probe"] + 1
    assert counts["walk"] == before["walk"] + 1

    # The mirror's probe entries are the fetch program's own tuples.
    engine = build_engine(program, arch(), stream=stream)
    engine.run(trace)
    flat = lowering.flat_probes(trace, program.image, 32)
    assert engine._probes is flat.probes
    planned = [probe for plan in engine.inner.plans(trace) for probe in plan.probes]
    assert len(flat.probes) == len(planned)
    assert all(a is b for a, b in zip(flat.probes, planned))
    walks = recorded_walks(stream, 32)
    assert engine._walks is walks

    # An event-loop replay cell reads the same walk chunk objects.
    served = []
    serve = ReplayBranchUnit.iter_last_wrong_path_lines

    def spy(unit, line_size):
        lines = serve(unit, line_size)
        served.extend(lines)
        return lines

    monkeypatch.setattr(ReplayBranchUnit, "iter_last_wrong_path_lines", spy)
    simulate(program, trace, arch(engine_backend="event"), stream=stream)
    shared = {id(chunk) for chunk in walks.lines}
    assert served
    assert all(id(chunk) in shared for chunk in served)
    assert counts["probe"] == before["probe"] + 1
    assert counts["walk"] == before["walk"] + 1

    # Another line size is exactly one more lowering of each.
    wide = [replace(cache, line_size=64) for cache in GEOMETRIES[:2]]
    _vector_sweep(program, trace, stream, wide)
    assert counts["probe"] == before["probe"] + 2
    assert counts["walk"] == before["walk"] + 2


#: Long enough that one geometry's private split of the probes and walks
#: (~55 bytes per instruction) would clear the 1 MB bound several times.
MEMORY_TRACE_LENGTH = 20_000


def _retained_lowering(program, geometries) -> int:
    """Bytes still allocated after a replayed vector sweep over a fresh
    trace and stream: the lowerings the memos keep for them."""
    trace = generate_trace(program, MEMORY_TRACE_LENGTH, seed=41)
    stream = build_stream(program, trace, arch())
    gc.collect()
    tracemalloc.start()
    try:
        _vector_sweep(program, trace, stream, geometries)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained


def test_geometry_sweep_retains_no_per_geometry_lowering(workload):
    """Retained lowering is per (trace, line size), not per geometry:
    six geometries keep what one keeps, within 1 MB."""
    program, _ = workload
    one = _retained_lowering(program, GEOMETRIES[:1])
    six = _retained_lowering(program, GEOMETRIES)
    assert one > 0
    assert six - one < 1_000_000, (one, six)


def test_span_counts_and_warmup_split_match_the_records(workload):
    """The plans' packed counts add up to the records' own totals, and
    the warmup split lands where a record-by-record count reaches the
    warmup."""
    program, trace = workload
    engine = build_engine(program, SimConfig())
    plans = engine.plans(trace)
    for lo, hi in ((0, len(plans)), (7, 300), (50, 51), (9, 9)):
        span = plans[lo:hi]
        instructions, probes, conditionals = lowering.span_counts(span)
        assert instructions == sum(r.length for r in trace.records[lo:hi])
        assert probes == sum(len(plan.probes) for plan in span)
        assert conditionals == sum(
            plan.kind == lowering._COND for plan in span
        )
    for warm in (1, 2, 999, 1_000, 1_001, trace.n_instructions - 1,
                 trace.n_instructions + 5):
        running = 0
        expected = (len(plans), trace.n_instructions)
        for i, record in enumerate(trace.records):
            running += record.length
            if running >= warm:
                expected = (i, running)
                break
        assert lowering.warmup_split(plans, warm) == expected
    assert lowering.warmup_split([], 10) == (0, 0)

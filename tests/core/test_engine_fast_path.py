"""Differential tests for the engine's hot-loop fast path.

The fast path in ``FetchEngine._run_span``'s probe loop inlines the
MRU-hit bookkeeping of unclassified, stream-buffer-free configurations
at every associativity.  These tests force the general path
(``_fetch_right_line`` for every probe) on an otherwise identical engine
and assert the results are bit-identical, so the fast path can never
drift from the reference semantics.
"""

from __future__ import annotations

import pytest

from repro.config import ALL_POLICIES, CacheConfig, FetchPolicy, SimConfig
from repro.core.engine import FetchEngine
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace

TRACE_LENGTH = 12_000
SEED = 1234


@pytest.fixture(scope="module")
def workload():
    program = build_workload("gcc")
    trace = generate_trace(program, n_instructions=TRACE_LENGTH, seed=SEED)
    return program, trace


def _run(program, trace, config, *, fast: bool, warmup: int = 0):
    engine = FetchEngine(program, config)
    if not fast:
        engine._fast_path = False
    else:
        assert engine._fast_path, "config unexpectedly off the fast path"
    return engine.run(trace, warmup_instructions=warmup)


def _with_assocs(values, name):
    """*values* crossed with associativity 1, 2 and 4 (lower-way hits
    leave the inline path); the direct-mapped case keeps the bare id."""
    return [
        pytest.param(
            value, assoc,
            id=name(value) if assoc == 1 else f"{name(value)}-{assoc}way",
        )
        for value in values
        for assoc in (1, 2, 4)
    ]


@pytest.mark.parametrize("policy,assoc", _with_assocs(ALL_POLICIES, str))
def test_fast_path_bit_identical_per_policy(workload, policy, assoc):
    program, trace = workload
    config = SimConfig(policy=policy, cache=CacheConfig(assoc=assoc))
    assert _run(program, trace, config, fast=True) == _run(
        program, trace, config, fast=False
    )


@pytest.mark.parametrize(
    "kwargs,assoc",
    _with_assocs(
        [
            {"prefetch": True},
            {"prefetch": True, "prefetch_variant": "always"},
            {"prefetch": True, "target_prefetch": True},
            {"fill_buffers": 2},
            {"bus_interleave_cycles": 3},
        ],
        lambda kw: ",".join(sorted(kw)),
    ),
)
def test_fast_path_bit_identical_variants(workload, kwargs, assoc):
    program, trace = workload
    config = SimConfig(
        policy=FetchPolicy.RESUME, cache=CacheConfig(assoc=assoc), **kwargs
    )
    assert _run(program, trace, config, fast=True) == _run(
        program, trace, config, fast=False
    )


def test_fast_path_bit_identical_with_warmup(workload):
    program, trace = workload
    config = SimConfig(policy=FetchPolicy.RESUME, prefetch=True)
    assert _run(program, trace, config, fast=True, warmup=3_000) == _run(
        program, trace, config, fast=False, warmup=3_000
    )


def _measured_from(trace, warmup: int) -> int:
    """Instructions measured after *warmup*: the measurement restarts
    just before the first record whose running count reaches it."""
    if warmup == 0:
        return trace.n_instructions
    running = 0
    for i, record in enumerate(trace.records):
        running += record.length
        if running >= warmup:
            return sum(r.length for r in trace.records[i:])
    raise AssertionError("warmup consumes the whole trace")


def _warmup_at(trace, where: str) -> int:
    """A warmup ending on the 100th record's end, inside the 101st
    record, or inside the first record."""
    records = trace.records
    if where == "first-block":
        assert records[0].length >= 2
        return records[0].length - 1
    end = sum(r.length for r in records[:100])
    if where == "block-end":
        return end
    assert records[100].length >= 2
    return end + 1


@pytest.mark.parametrize("where", ["block-end", "mid-block", "first-block"])
@pytest.mark.parametrize("policy", ALL_POLICIES, ids=str)
def test_warmup_boundary_bit_identical(workload, policy, where):
    program, trace = workload
    warmup = _warmup_at(trace, where)
    config = SimConfig(policy=policy, prefetch=True)
    fast = _run(program, trace, config, fast=True, warmup=warmup)
    assert fast == _run(program, trace, config, fast=False, warmup=warmup)
    counters = fast.counters
    assert counters.instructions == _measured_from(trace, warmup)
    # A warmup inside the first record resets before anything ran.
    assert (counters.instructions == trace.n_instructions) == (
        where == "first-block"
    )
    assert fast.cache_stats.probes == counters.right_probes
    assert fast.cache_stats.hits + fast.cache_stats.misses == counters.right_probes
    assert fast.branch_stats.correct == (
        fast.branch_stats.conditional
        + fast.branch_stats.unconditional
        - fast.branch_stats.btb_misfetches
        - fast.branch_stats.pht_mispredicts
        - fast.branch_stats.btb_mispredicts
    )


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=str)
def test_interval_warmup_mid_interval_bit_identical(workload, policy):
    """Warmup ends inside the third 1000-instruction interval."""
    program, trace = workload
    config = SimConfig(policy=policy, adaptive_interval=1_000)
    engines = []
    for fast in (True, False):
        engine = FetchEngine(program, config)
        engine._fast_path = engine._fast_path and fast
        engines.append((engine, engine.run(trace, warmup_instructions=2_500)))
    (fast_engine, fast), (general_engine, general) = engines
    assert fast == general
    assert fast_engine.interval_log == general_engine.interval_log
    assert fast.counters.instructions == _measured_from(trace, 2_500)
    # The log restarted with the interval the warmup ended in.
    assert sum(s.instructions for s in fast.intervals) == (
        fast.counters.instructions
    )
    assert len(fast.intervals) < len(list(range(0, TRACE_LENGTH, 1_000)))


def test_perfect_cache_counts_no_right_probes(workload):
    program, trace = workload
    result = FetchEngine(program, SimConfig(perfect_cache=True)).run(
        trace, warmup_instructions=3_000
    )
    assert result.counters.right_probes == 0
    assert result.counters.right_misses == 0
    assert result.cache_stats is None
    assert result.counters.instructions == _measured_from(trace, 3_000)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"classify": True},
        {"stream_buffers": 2},
        {"perfect_cache": True},
    ],
    ids=lambda kw: ",".join(sorted(kw)),
)
def test_general_configs_stay_off_fast_path(workload, kwargs):
    """Classified / stream / perfect configs must not take it."""
    program, _ = workload
    policy = FetchPolicy.OPTIMISTIC if "classify" in kwargs else FetchPolicy.RESUME
    config = SimConfig(policy=policy, **kwargs)
    assert not FetchEngine(program, config)._fast_path

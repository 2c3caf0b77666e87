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

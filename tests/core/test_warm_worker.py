"""A pool worker keeps its last workload warm between cells.

``_run_benchmark_jobs`` holds the ``(program, trace)`` it prepared last,
keyed by ``(name, trace_length, seed)``, so consecutive cells of one
benchmark skip the artifact load and share one lowering.  It holds at
most one workload, never reads or fills the memo under a fault plan, and
only pool workers hold anything.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict

import pytest

import repro.core.parallel as parallel
from repro.config import FetchPolicy, SimConfig
from repro.core.faults import FaultPlan
from repro.core.parallel import ParallelRunner, _run_benchmark_jobs

TRACE = 3_000
WARMUP = 600
SEED = 7


def _payload(name, policy=FetchPolicy.ORACLE, plan=None):
    return (
        name, (SimConfig(policy=policy),), TRACE, WARMUP, SEED, False,
        None, plan,
    )


def _record(ret):
    (result,), _, _ = ret
    return result.penalties.as_dict(), asdict(result.counters)


@pytest.fixture
def worker(monkeypatch):
    """This process, acting as a pool worker; counts workload loads."""
    loads = []
    prepare = parallel._prepare

    def counting_prepare(name, *args):
        loads.append(name)
        return prepare(name, *args)

    monkeypatch.setattr(parallel, "_hold_workloads", True)
    monkeypatch.setattr(parallel, "_held_workload", None)
    monkeypatch.setattr(parallel, "_prepare", counting_prepare)
    return loads


def _held():
    return parallel._held_workload


def test_consecutive_cells_reuse_the_workload(worker):
    _run_benchmark_jobs(_payload("gcc"))
    key, program, trace = _held()
    assert key == ("gcc", TRACE, SEED)
    second = _run_benchmark_jobs(_payload("gcc", FetchPolicy.RESUME))
    assert _held()[1] is program and _held()[2] is trace
    assert worker == ["gcc"]
    # The warm cell is the cell a cold worker computes.
    parallel._held_workload = None
    assert _record(_run_benchmark_jobs(_payload("gcc", FetchPolicy.RESUME))) == (
        _record(second)
    )


def test_another_benchmark_replaces_the_held_workload(worker):
    _run_benchmark_jobs(_payload("gcc"))
    # The lowering memos key on these two; nothing else keeps them.
    gcc_image = weakref.ref(_held()[1].image)
    gcc_trace = weakref.ref(_held()[2])
    _run_benchmark_jobs(_payload("doduc"))
    assert _held()[0] == ("doduc", TRACE, SEED)
    assert gcc_image() is None and gcc_trace() is None
    assert worker == ["gcc", "doduc"]


def test_fault_plan_neither_reads_nor_fills_the_memo(worker, tmp_path):
    plan = FaultPlan(faults=[], state_dir=str(tmp_path))
    _run_benchmark_jobs(_payload("gcc", plan=plan))
    assert _held() is None
    _run_benchmark_jobs(_payload("gcc"))
    held = _held()
    _run_benchmark_jobs(_payload("gcc", plan=plan))
    assert _held() is held
    assert worker == ["gcc", "gcc", "gcc"]


def _holds_workloads() -> bool:
    return parallel._hold_workloads


def test_only_pool_workers_hold_a_workload():
    _run_benchmark_jobs(_payload("gcc"))
    assert parallel._hold_workloads is False
    assert parallel._held_workload is None
    pool = ParallelRunner(max_workers=1)._new_pool()
    try:
        assert pool.submit(_holds_workloads).result(timeout=60) is True
    finally:
        ParallelRunner._terminate_pool(pool)


def test_service_pool_workers_hold_a_workload(tmp_path):
    from repro.service.server import SweepService

    service = SweepService(data_dir=tmp_path / "data", max_workers=1)
    pool = service._ensure_pool()
    try:
        assert pool.submit(_holds_workloads).result(timeout=60) is True
    finally:
        ParallelRunner._terminate_pool(pool)

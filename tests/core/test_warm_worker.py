"""A service pool worker keeps its last workload warm between cells.

``serve_cell`` holds the ``(program, trace)`` it prepared last,
keyed by ``(name, trace_length, seed)``, so consecutive cells of one
benchmark skip the artifact load and share one lowering.  It holds at
most one workload, never reads or fills the memo under a fault plan, and
only pool workers hold anything.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import pytest

import repro.core.worker as worker_module
from repro.config import FetchPolicy, SimConfig
from repro.core.faults import FaultPlan
from repro.core.lifeline import terminate_pool
from repro.core.worker import _pool_worker, serve_cell

TRACE = 3_000
WARMUP = 600
SEED = 7


def _payload(name, policy=FetchPolicy.ORACLE, plan=None):
    return name, SimConfig(policy=policy), TRACE, WARMUP, SEED, None, plan


def _record(result):
    return result.penalties.as_dict(), asdict(result.counters)


@pytest.fixture
def worker(monkeypatch):
    """This process, acting as a pool worker; counts workload loads."""
    loads = []
    prepare = worker_module._prepare

    def counting_prepare(name, *args):
        loads.append(name)
        return prepare(name, *args)

    monkeypatch.setattr(worker_module, "_hold_workloads", True)
    monkeypatch.setattr(worker_module, "_held_workload", None)
    monkeypatch.setattr(worker_module, "_prepare", counting_prepare)
    return loads


def _held():
    return worker_module._held_workload


def test_consecutive_cells_reuse_the_workload(worker):
    serve_cell(_payload("gcc"))
    key, program, trace = _held()
    assert key == ("gcc", TRACE, SEED)
    second = serve_cell(_payload("gcc", FetchPolicy.RESUME))
    assert _held()[1] is program and _held()[2] is trace
    assert worker == ["gcc"]
    # The warm cell is the cell a cold worker computes.
    worker_module._held_workload = None
    assert _record(serve_cell(_payload("gcc", FetchPolicy.RESUME))) == (
        _record(second)
    )


def test_another_benchmark_replaces_the_held_workload(worker):
    serve_cell(_payload("gcc"))
    # The lowering memos key on these two; nothing else keeps them.
    gcc_image = weakref.ref(_held()[1].image)
    gcc_trace = weakref.ref(_held()[2])
    serve_cell(_payload("doduc"))
    assert _held()[0] == ("doduc", TRACE, SEED)
    assert gcc_image() is None and gcc_trace() is None
    assert worker == ["gcc", "doduc"]


def test_fault_plan_neither_reads_nor_fills_the_memo(worker, tmp_path):
    plan = FaultPlan(faults=[], state_dir=str(tmp_path))
    serve_cell(_payload("gcc", plan=plan))
    assert _held() is None
    serve_cell(_payload("gcc"))
    held = _held()
    serve_cell(_payload("gcc", plan=plan))
    assert _held() is held
    assert worker == ["gcc", "gcc", "gcc"]


def _holds_workloads() -> bool:
    return worker_module._hold_workloads


def test_only_pool_workers_hold_a_workload():
    serve_cell(_payload("gcc"))
    assert worker_module._hold_workloads is False
    assert worker_module._held_workload is None
    pool = ProcessPoolExecutor(max_workers=1, initializer=_pool_worker)
    try:
        assert pool.submit(_holds_workloads).result(timeout=60) is True
    finally:
        terminate_pool(pool)


def test_service_pool_workers_hold_a_workload(tmp_path):
    from repro.service.server import SweepService

    service = SweepService(data_dir=tmp_path / "data", max_workers=1)
    pool = service._ensure_pool()
    try:
        assert pool.submit(_holds_workloads).result(timeout=60) is True
    finally:
        terminate_pool(pool)

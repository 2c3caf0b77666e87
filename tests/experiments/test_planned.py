"""Planned experiments: plan the cells, simulate them on every core, then
serve each result back in request order.

A planned run must be indistinguishable from a serial one: the same
experiment JSON, the same cell traffic, the same metrics registry (bar
the ``sweep.plan_*`` counters) and the same event stream.  The pool is
forced on a 1-CPU host by patching the worker-count helper.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

import repro.core.runner as runner_module
from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.runner import SimulationRunner
from repro.experiments.registry import EXPERIMENTS, PAPER_EXPERIMENTS, planned
from repro.obs import Observer, PhaseProfiler, RingBufferSink
from repro.report import experiment_to_json

TRACE = 3_000
WARMUP = 600
SEED = 7
BENCHMARKS = ("gcc", "doduc")
PLANNED = (*PAPER_EXPERIMENTS, "adaptive")

_simulate_task = runner_module._simulate_task


def _runner(**kwargs) -> SimulationRunner:
    kwargs.setdefault("trace_length", TRACE)
    kwargs.setdefault("warmup", WARMUP)
    kwargs.setdefault("seed", SEED)
    return SimulationRunner(**kwargs)


def _sweep(experiment_ids, sink=None, plan=True):
    """Every experiment in one observed runner, as the CLI runs them:
    ``(outputs, runner)``; ``plan=False`` calls the bare experiments."""
    runner = _runner(observer=Observer(sink=sink, profiler=PhaseProfiler()))
    outputs = {}
    for eid in experiment_ids:
        experiment = EXPERIMENTS[eid]
        if not plan:
            experiment = getattr(experiment, "__wrapped__", experiment)
        outputs[eid] = experiment_to_json(
            experiment(runner, benchmarks=BENCHMARKS)
        )
    return outputs, runner


def _without_plan_counters(runner) -> dict:
    return {
        name: value
        for name, value in runner.observer.registry.as_dict().items()
        if not name.startswith("sweep.plan_")
    }


def _traffic(runner) -> tuple[int, int, int]:
    return runner.cells_requested, runner.cells_simulated, runner.memo_hits


def _dying_task(cells, stream_key):
    """A pool task that kills its worker when it reaches doduc."""
    if any(name == "doduc" for name, _ in cells):
        os._exit(3)
    return _simulate_task(cells, stream_key)


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(runner_module, "_plan_workers", lambda: 2)


@pytest.fixture(scope="module")
def serial():
    return _sweep(PLANNED, plan=False)


@pytest.fixture(scope="module")
def pooled():
    patch = pytest.MonkeyPatch()
    patch.setattr(runner_module, "_plan_workers", lambda: 2)
    try:
        return _sweep(PLANNED)
    finally:
        patch.undo()


class TestPlannedMatchesSerial:
    def test_pool_was_used(self, pooled):
        _, runner = pooled
        registry = runner.observer.registry
        assert registry.value("sweep.plan_cells") > 0
        assert registry.value("sweep.plan_tasks") > 0
        assert registry.value("sweep.plan_fallbacks") == 0
        assert registry.value("sweep.plan_errors") == 0
        assert multiprocessing.active_children() == []

    def test_experiment_json(self, serial, pooled):
        for eid in PLANNED:
            assert pooled[0][eid] == serial[0][eid], eid

    def test_cell_traffic(self, serial, pooled):
        assert _traffic(pooled[1]) == _traffic(serial[1])

    def test_registry(self, serial, pooled):
        assert _without_plan_counters(pooled[1]) == _without_plan_counters(
            serial[1]
        )

    def test_every_simulated_cell_is_profiled_once(self, pooled):
        _, runner = pooled
        profile = runner.observer.profiler.summary()
        calls = sum(
            profile.get(phase, {}).get("calls", 0)
            for phase in ("simulate", "pool.simulate")
        )
        assert calls == runner.cells_simulated
        assert profile["pool.simulate"]["calls"] > 0
        assert profile["simulate_plan"]["calls"] > 0

    def test_event_stream(self, two_workers):
        # A sink that wants events keeps every cell in process, so the
        # stream comes out in request order.
        ids = ("table3", "table4")
        serial_sink, pooled_sink = RingBufferSink(10**7), RingBufferSink(10**7)
        serial_out, _ = _sweep(ids, sink=serial_sink, plan=False)
        pooled_out, runner = _sweep(ids, sink=pooled_sink)
        assert pooled_out == serial_out
        assert runner.observer.registry.value("sweep.plan_cells") == 0
        assert pooled_sink.events() == serial_sink.events()
        assert pooled_sink.emitted > 0


class TestDispatch:
    def test_one_worker_builds_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was constructed")

        monkeypatch.setattr(runner_module, "_plan_workers", lambda: 1)
        monkeypatch.setattr(
            "concurrent.futures.process.ProcessPoolExecutor", no_pool
        )
        outputs, runner = _sweep(("table3",))
        assert runner.observer.registry.value("sweep.plan_cells") == 0
        assert outputs == _sweep(("table3",), plan=False)[0]

    def test_no_worker_outlives_run_many(self, two_workers):
        runner = _runner()
        runner.run_many(
            [("gcc", SimConfig(policy=policy)) for policy in ALL_POLICIES]
        )
        assert multiprocessing.active_children() == []
        assert len(runner._planned) == len(ALL_POLICIES)

    def test_fault_plan_dispatches_nothing(self, two_workers, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="crash")],
            state_dir=str(tmp_path),
        )
        runner = _runner(fault_plan=plan, retries=1, backoff_base=0.0)
        cells = [("gcc", SimConfig(policy=policy)) for policy in ALL_POLICIES]
        runner.run_many(cells)
        assert runner._planned == {}
        # The fault fires at the first request, in process, and retries.
        runner.run(*cells[0])
        assert plan.fired_total() == 1

    def test_cell_free_experiment_runs_once(self, two_workers):
        calls = []

        def cell_free(runner):
            calls.append(runner)
            return runner.trace("gcc").n_blocks

        def two_cells(runner):
            calls.append(runner)
            return [runner.run("gcc", SimConfig(policy=p)) for p in
                    (FetchPolicy.ORACLE, FetchPolicy.RESUME)]

        runner = _runner()
        assert planned(cell_free)(runner) == runner.trace("gcc").n_blocks
        assert len(calls) == 1
        calls.clear()
        planned(two_cells)(runner)
        assert len(calls) == 2 and calls[-1] is runner
        assert runner.cells_simulated == 2 and runner.memo_hits == 0


class TestFailures:
    def test_dead_worker_falls_back_in_process(self, monkeypatch, serial):
        monkeypatch.setattr(runner_module, "_plan_workers", lambda: 2)
        monkeypatch.setattr(runner_module, "_simulate_task", _dying_task)
        ids = ("table3", "table5")
        outputs, runner = _sweep(ids)
        assert runner.observer.registry.value("sweep.plan_fallbacks") > 0
        reference, reference_runner = _sweep(ids, plan=False)
        assert outputs == reference
        assert _traffic(runner) == _traffic(reference_runner)
        assert _without_plan_counters(runner) == _without_plan_counters(
            reference_runner
        )
        assert multiprocessing.active_children() == []

    def test_failing_planning_pass_warns_and_runs(self, two_workers):
        def fragile(runner):
            result = runner.run("gcc", SimConfig())
            if getattr(result, "missing", False):
                raise ValueError("cannot plan around a missing cell")
            return result.total_ispi

        runner = _runner(observer=Observer())
        with pytest.warns(RuntimeWarning, match="planning fragile failed"):
            ispi = planned(fragile)(runner)
        assert ispi == _runner().run("gcc", SimConfig()).total_ispi
        assert runner.observer.registry.value("sweep.plan_errors") == 1
        assert runner.cells_simulated == 1

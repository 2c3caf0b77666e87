"""Planned experiments: plan the cells, simulate them on every core, then
serve each result back in request order.

A planned run must be indistinguishable from a serial one, the same plan
run on one CPU: the same experiment JSON, the same cell traffic, the same
metrics registry (bar the ``sweep.plan_*`` counters) and the same event
stream.  An unplanned run gives the same JSON and traffic too; its
registry differs only in the ``stream.*`` counters, because a planned
cell replays a prediction stream only when another planned cell shares
it.  The pool is forced on a 1-CPU host by patching the worker-count
helper.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import multiprocessing
import os
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.core.runner as runner_module
from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.runner import SimulationRunner
from repro.errors import ExperimentError
from repro.experiments.registry import EXPERIMENTS, PAPER_EXPERIMENTS, planned
from repro.experiments.sweeps import Sweep
from repro.obs import Observer, PhaseProfiler, RingBufferSink
from repro.obs.events import StreamBuild
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


def _sweep(experiment_ids, sink=None, plan=True, **runner_kwargs):
    """Every experiment in one observed runner, as the CLI runs them:
    ``(outputs, runner)``; ``plan=False`` calls the bare experiments."""
    runner = _runner(
        observer=Observer(sink=sink, profiler=PhaseProfiler()),
        **runner_kwargs,
    )
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


def _dying_task(name, config):
    """A pool task that kills its worker when it reaches doduc."""
    if name == "doduc":
        os._exit(3)
    return _simulate_task(name, config)


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(runner_module, "_plan_workers", lambda: 2)


@pytest.fixture(scope="module")
def serial():
    return _one_cpu(lambda: _sweep(PLANNED))


@pytest.fixture(scope="module")
def unplanned():
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

    def test_experiment_json(self, serial, pooled, unplanned):
        for eid in PLANNED:
            assert pooled[0][eid] == serial[0][eid], eid
            assert pooled[0][eid] == unplanned[0][eid], eid

    def test_cell_traffic(self, serial, pooled, unplanned):
        assert _traffic(pooled[1]) == _traffic(serial[1])
        assert _traffic(pooled[1]) == _traffic(unplanned[1])

    def test_registry(self, serial, pooled):
        assert _without_plan_counters(pooled[1]) == _without_plan_counters(
            serial[1]
        )

    def test_unplanned_registry_differs_only_in_stream_counters(
        self, pooled, unplanned
    ):
        def engine_side(runner):
            return {
                name: value
                for name, value in _without_plan_counters(runner).items()
                if not name.startswith("stream.")
            }

        assert engine_side(pooled[1]) == engine_side(unplanned[1])
        # table3's four perfect-cache streams each have one user: the
        # plan runs those cells live, unplanned requests replay them.
        registry = pooled[1].observer.registry
        assert registry.value("stream.builds") == 0
        assert registry.value("stream.replays") == 0
        assert unplanned[1].observer.registry.value("stream.replays") == 4

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
        # stream comes out in request order.  No stream of these two
        # experiments has a second user, so the plan records none and
        # runs every cell live.  The bare experiments replay table3's
        # four perfect-cache cells instead: their events are the same,
        # bar the four stream recordings.
        ids = ("table3", "table4")
        serial_sink, pooled_sink = RingBufferSink(10**7), RingBufferSink(10**7)
        serial_out, _ = _sweep(ids, sink=serial_sink, plan=False)
        pooled_out, runner = _sweep(ids, sink=pooled_sink)
        assert pooled_out == serial_out
        assert runner.observer.registry.value("sweep.plan_cells") == 0
        assert runner.observer.registry.value("stream.builds") == 0
        assert len(serial_sink.of_type(StreamBuild)) == 4
        assert pooled_sink.events() == [
            event for event in serial_sink.events()
            if not isinstance(event, StreamBuild)
        ]
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
        reference, reference_runner = _one_cpu(lambda: _sweep(ids))
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

    def test_refusal_raised_again_by_the_real_pass_is_not_warned(self, recwarn):
        def refusing(runner):
            raise ExperimentError("needs local traces")

        runner = _runner(observer=Observer())
        with pytest.raises(ExperimentError, match="needs local traces"):
            planned(refusing)(runner)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert runner.observer.registry.value("sweep.plan_errors") == 0

    def test_refusal_only_while_planning_warns_after_the_real_pass(self):
        events = []

        def refuses_placeholders(runner):
            result = runner.run("gcc", SimConfig())
            if getattr(result, "missing", False):
                raise ExperimentError("cannot plan around a missing cell")
            # The real pass runs before anything is warned or counted.
            events.append((len(caught), registry.value("sweep.plan_errors")))
            return result.total_ispi

        runner = _runner(observer=Observer())
        registry = runner.observer.registry
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ispi = planned(refuses_placeholders)(runner)
        assert events == [(0, 0)]
        assert [str(w.message) for w in caught] == [
            "planning refuses_placeholders failed; its cells run one at a "
            "time (ExperimentError: cannot plan around a missing cell)"
        ]
        assert ispi == _runner().run("gcc", SimConfig()).total_ispi
        assert registry.value("sweep.plan_errors") == 1


def _stream_sweep() -> Sweep:
    """Cells that all replay their program's one architectural stream."""
    return Sweep(
        base=SimConfig(branch_schedule="architectural"),
        axes={
            "perfect_cache": [False, True],
            "policy": [FetchPolicy.ORACLE, FetchPolicy.RESUME],
        },
    )


def _points(points) -> list:
    return [
        (p.benchmark, p.parameters, p.result.penalties.as_dict(),
         asdict(p.result.counters))
        for p in points
    ]


def _swept() -> tuple[list, SimulationRunner]:
    """The stream sweep on a fresh observed runner."""
    runner = _runner(observer=Observer(profiler=PhaseProfiler()))
    return _points(_stream_sweep().run(runner, BENCHMARKS)), runner


def _one_cpu(run):
    """*run*() with the plan pool off, as on a one-CPU host."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner_module, "_plan_workers", lambda: 1)
        return run()


class TestSweepOnEveryCore:
    def test_matches_one_cpu(self, two_workers):
        serial_points, serial_runner = _one_cpu(_swept)
        points, runner = _swept()
        assert points == serial_points
        assert _without_plan_counters(runner) == _without_plan_counters(
            serial_runner
        )
        assert _traffic(runner) == _traffic(serial_runner)
        assert serial_runner.observer.registry.value("sweep.plan_tasks") == 0
        assert multiprocessing.active_children() == []

    def test_shared_streams_are_built_once_before_the_fork(self, two_workers):
        points, runner = _swept()
        registry = runner.observer.registry
        assert registry.value("stream.builds") == len(BENCHMARKS)
        assert registry.value("stream.replays") == len(points) == 8
        assert registry.value("sweep.plan_tasks") == len(points)
        assert registry.value("sweep.plan_cells") == len(points)
        assert registry.value("sweep.plan_fallbacks") == 0

    def test_unshared_streams_run_live(self, two_workers):
        # Each of table3's replay-eligible (perfect-cache) cells has a
        # stream of its own, so the plan records none and runs every
        # cell live; the bare experiment replays them, to the same table
        # and the same engine counters.
        runs = {}
        for plan in (True, False):
            runner = _runner(observer=Observer())
            experiment = EXPERIMENTS["table3"]
            if not plan:
                experiment = experiment.__wrapped__
            output = experiment_to_json(experiment(runner, benchmarks=BENCHMARKS))
            registry = runner.observer.registry.as_dict()
            runs[plan] = (
                output,
                {
                    name: value for name, value in registry.items()
                    if not name.startswith(("stream.", "sweep.plan_"))
                },
                registry.get("stream.replays", 0),
                registry.get("sweep.plan_tasks", 0),
            )
        assert runs[True][:2] == runs[False][:2]
        assert (runs[True][2], runs[False][2]) == (0, 4)
        assert runs[True][3] > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_live_marks_are_consumed_when_served(self, monkeypatch, workers):
        # run_jobs (Sweep.run, batch and service paths) never drops its
        # plan, so serving a cell must clear its unshared mark (these
        # perfect-cache cells run live).
        monkeypatch.setattr(runner_module, "_plan_workers", lambda: workers)
        runner = _runner(observer=Observer())
        jobs = [(name, SimConfig(perfect_cache=True)) for name in BENCHMARKS]
        runner.run_jobs(jobs)
        assert runner._unshared == set()
        assert runner.observer.registry.value("stream.builds") == 0
        assert runner.observer.registry.value("sweep.plan_tasks") == (
            len(jobs) if workers > 1 else 0
        )

    def test_failed_stream_build_leaves_cells_to_run(
        self, two_workers, monkeypatch
    ):
        build_stream = runner_module.build_stream

        def no_gcc_stream(program, trace, config):
            if program.name == "gcc":
                raise OSError("no room for the gcc stream")
            return build_stream(program, trace, config)

        reference, _ = _one_cpu(_swept)
        monkeypatch.setattr(runner_module, "build_stream", no_gcc_stream)
        runner = _runner(observer=Observer())
        cells = [
            (name, config)
            for name in BENCHMARKS
            for _, config in _stream_sweep().configurations()
        ]
        runner.run_many(cells)
        held = {outcome.result.program for outcome in runner._planned.values()}
        assert held == {"doduc"}
        assert runner.observer.registry.value("sweep.plan_cells") == 4
        monkeypatch.setattr(runner_module, "build_stream", build_stream)
        assert _points(_stream_sweep().run(runner, BENCHMARKS)) == reference
        assert runner.cells_simulated == len(cells)
        assert runner.observer.registry.value("stream.builds") == 2


def _example_stdout() -> str:
    """``examples/custom_sweep.py`` on gcc at a short trace, as printed."""
    path = Path(__file__).parents[2] / "examples" / "custom_sweep.py"
    spec = importlib.util.spec_from_file_location("custom_sweep", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        example.main(["gcc"], trace_length=TRACE)
    return out.getvalue()


def test_custom_sweep_example_plans_to_the_same_output(
    two_workers, monkeypatch
):
    dispatched = []
    dispatch = SimulationRunner._dispatch

    def spy(runner, tasks, workers):
        dispatched.append(len(tasks))
        return dispatch(runner, tasks, workers)

    monkeypatch.setattr(SimulationRunner, "_dispatch", spy)
    serial = _one_cpu(_example_stdout)
    assert dispatched == []
    pooled = _example_stdout()
    assert dispatched == [14]
    assert pooled == serial
    assert "gcc" in pooled

"""The runner's in-process result memo: each distinct cell simulates once.

Lookup order in ``SimulationRunner.run`` is memo, then checkpoint store,
then simulation.  The memo key is every input ``cell_digest`` hashes, so
any change to the cell misses; only successful results are memoised,
and a memo hit fires no fault, opens no ``simulate`` phase and publishes
no engine metrics.
"""

from __future__ import annotations

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.results import MissingResult
from repro.core.runner import SimulationRunner
from repro.experiments.registry import EXPERIMENTS, PAPER_EXPERIMENTS
from repro.obs import Observer, PhaseProfiler
from repro.report import experiment_to_json

TRACE = 3_000
WARMUP = 600
SEED = 7
BENCHMARKS = ("gcc", "doduc")

ORACLE = SimConfig(policy=FetchPolicy.ORACLE)
RESUME = SimConfig(policy=FetchPolicy.RESUME)


def _runner(**kwargs) -> SimulationRunner:
    kwargs.setdefault("trace_length", TRACE)
    kwargs.setdefault("warmup", WARMUP)
    kwargs.setdefault("seed", SEED)
    return SimulationRunner(**kwargs)


@pytest.fixture(scope="module")
def paper_pass():
    """All paper experiments through one observed runner, recording each
    requested cell (after the engine override) in request order."""
    runner = _runner(observer=Observer(profiler=PhaseProfiler()))
    requested = []
    run = runner.run

    def recording_run(name, config):
        requested.append((name, runner._effective_config(config)))
        return run(name, config)

    runner.run = recording_run
    outputs = {
        eid: experiment_to_json(EXPERIMENTS[eid](runner, benchmarks=BENCHMARKS))
        for eid in PAPER_EXPERIMENTS
    }
    return runner, requested, outputs


class TestDistinctCells:
    def test_simulates_each_distinct_cell_once(self, paper_pass):
        runner, requested, _ = paper_pass
        distinct = len(set(requested))
        repeats = len(requested) - distinct
        assert repeats > 0, "the paper experiments are expected to repeat cells"
        profile = runner.observer.profiler.summary()
        # Planned cells simulated by pool workers profile as pool.simulate.
        simulated = sum(
            profile.get(phase, {}).get("calls", 0)
            for phase in ("simulate", "pool.simulate")
        )
        assert simulated == distinct
        registry = runner.observer.registry
        assert registry.value("sweep.result_hits") == repeats
        assert runner.cells_requested == len(requested)
        assert runner.cells_simulated == distinct
        assert runner.memo_hits == repeats

    def test_output_matches_a_fresh_runner_per_experiment(self, paper_pass):
        # Hits are bit-identical, and no experiment mutates a result it
        # shares with a later one.
        _, _, outputs = paper_pass
        for eid in PAPER_EXPERIMENTS:
            fresh = EXPERIMENTS[eid](_runner(), benchmarks=BENCHMARKS)
            assert experiment_to_json(fresh) == outputs[eid], eid


class TestKeyCoverage:
    def test_repeat_is_the_same_object(self):
        runner = _runner()
        first = runner.run("li", ORACLE)
        assert runner.run("li", SimConfig(policy=FetchPolicy.ORACLE)) is first
        assert (runner.cells_simulated, runner.memo_hits) == (1, 1)

    @pytest.mark.parametrize(
        "attr, value",
        [("seed", SEED + 1), ("trace_length", TRACE + 500),
         ("warmup", WARMUP + 1), ("engine", "event")],
    )
    def test_changed_runner_input_misses(self, attr, value):
        runner = _runner()
        first = runner.run("li", ORACLE)
        setattr(runner, attr, value)
        second = runner.run("li", ORACLE)
        assert second is not first
        assert (runner.cells_simulated, runner.memo_hits) == (2, 0)

    def test_changed_config_or_benchmark_misses(self):
        runner = _runner()
        runner.run("li", ORACLE)
        runner.run("li", RESUME)
        runner.run("doduc", ORACLE)
        assert (runner.cells_simulated, runner.memo_hits) == (3, 0)


class TestFailuresAndFaults:
    def test_failures_are_not_memoised(self, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="bug", benchmark="li")],
            state_dir=str(tmp_path / "faults"),
        )
        runner = _runner(on_error="skip", fault_plan=plan)
        failed = runner.run("li", ORACLE)
        assert isinstance(failed, MissingResult)
        # The ticket is spent; the next request simulates again.
        recovered = runner.run("li", ORACLE)
        assert not isinstance(recovered, MissingResult)
        assert recovered == _runner().run("li", ORACLE)
        assert (runner.cells_requested, runner.cells_simulated) == (2, 1)
        assert runner.memo_hits == 0

    def test_fault_fires_on_first_occurrence_not_on_a_hit(self, tmp_path):
        # A bug armed on li's second simulate-phase invocation: the repeat
        # of the first cell is a memo hit and consumes no invocation, so
        # the fault lands on the next distinct cell.
        plan = FaultPlan(
            faults=[FaultSpec(
                phase="simulate", kind="bug", benchmark="li", invocation=2,
            )],
            state_dir=str(tmp_path / "faults"),
        )
        observer = Observer()
        runner = _runner(on_error="skip", fault_plan=plan, observer=observer)
        first = runner.run("li", ORACLE)
        assert runner.run("li", ORACLE) is first
        assert plan.fired_total() == 0
        assert isinstance(runner.run("li", RESUME), MissingResult)
        assert plan.fired_total() == 1
        assert observer.registry.value("sweep.result_hits") == 1

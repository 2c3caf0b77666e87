"""The plan pool: ``SimulationRunner.run_jobs`` on every core.

Each pooled test forces a two-worker pool (the ``plan_pool`` fixture),
so its cells run in forked workers on a one-CPU host too, and checks
the pooled runner against a serial one.
"""

import pytest

from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.errors import ExperimentError
from repro.obs import Observer, PhaseProfiler
from tests.conftest import without_plan_counters

TRACE = 15_000
WARMUP = 3_000

@pytest.fixture(scope="module")
def serial():
    return SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)


def _pooled(trace_length=TRACE, warmup=WARMUP, profiler=False):
    return SimulationRunner(
        trace_length=trace_length, warmup=warmup, seed=7,
        observer=Observer(profiler=PhaseProfiler() if profiler else None),
    )


def _plan_tasks(runner):
    return runner.observer.registry.value("sweep.plan_tasks")


class TestValidation:
    def test_bad_trace_length(self):
        with pytest.raises(ExperimentError):
            SimulationRunner(trace_length=0)

    def test_bad_warmup(self):
        with pytest.raises(ExperimentError):
            SimulationRunner(trace_length=100, warmup=100)


class TestRunJobs:
    def test_empty(self, plan_pool):
        runner = _pooled()
        assert runner.run_jobs([]) == []
        assert _plan_tasks(runner) == 0

    def test_matches_serial_exactly(self, serial, plan_pool):
        jobs = [
            ("li", SimConfig(policy=FetchPolicy.RESUME)),
            ("li", SimConfig(policy=FetchPolicy.PESSIMISTIC)),
            ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
        ]
        runner = _pooled()
        pooled_results = runner.run_jobs(jobs)
        assert _plan_tasks(runner) == len(jobs)
        for (name, config), presult in zip(jobs, pooled_results):
            assert presult == serial.run(name, config)

    def test_job_order_preserved(self, plan_pool):
        jobs = [
            ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
            ("li", SimConfig(policy=FetchPolicy.ORACLE)),
            ("doduc", SimConfig(policy=FetchPolicy.PESSIMISTIC)),
        ]
        runner = _pooled()
        results = runner.run_jobs(jobs)
        assert _plan_tasks(runner) == len(jobs)
        assert results[0].program == "doduc"
        assert results[1].program == "li"
        assert results[2].program == "doduc"
        assert results[2].config.policy is FetchPolicy.PESSIMISTIC

    def test_single_worker_path(self, serial, monkeypatch):
        # One CPU keeps the whole plan in process.
        import repro.core.runner as runner_module

        monkeypatch.setattr(runner_module, "_plan_workers", lambda: 1)
        runner = _pooled()
        jobs = [("li", SimConfig()), ("doduc", SimConfig())]
        results = runner.run_jobs(jobs)
        assert _plan_tasks(runner) == 0
        assert results == [serial.run(name, config) for name, config in jobs]


class TestRunMatrix:
    """A planned matrix: ``run_many`` on the pool, then ``run_matrix``
    serves the held cells."""

    def test_shape_matches_serial(self, serial, plan_pool):
        names = ("li", "doduc")
        policies = (FetchPolicy.ORACLE, FetchPolicy.RESUME)
        runner = _pooled()
        runner.run_many(
            (name, SimConfig(policy=policy))
            for name in names for policy in policies
        )
        pmatrix = runner.run_matrix(names, SimConfig(), policies)
        smatrix = serial.run_matrix(names, SimConfig(), policies)
        assert _plan_tasks(runner) == len(names) * len(policies)
        assert runner.cells_simulated == len(names) * len(policies)
        assert set(pmatrix) == set(smatrix)
        for name in names:
            for policy in policies:
                assert pmatrix[name][policy] == smatrix[name][policy]

    def test_all_policies_default(self, plan_pool):
        runner = _pooled()
        runner.run_many(
            ("li", SimConfig(policy=policy)) for policy in ALL_POLICIES
        )
        matrix = runner.run_matrix(("li",), SimConfig())
        assert set(matrix["li"]) == set(ALL_POLICIES)
        assert _plan_tasks(runner) == len(ALL_POLICIES)


class TestCollectMetrics:
    def test_disabled_by_default(self, serial, plan_pool):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        jobs = [("li", SimConfig()), ("doduc", SimConfig())]
        results = runner.run_jobs(jobs)
        assert runner.observer is None
        assert runner.cells_simulated == len(jobs)
        assert results == [serial.run(name, config) for name, config in jobs]

    def test_collects_when_enabled(self, plan_pool):
        runner = _pooled(profiler=True)
        results = runner.run_jobs(
            [("li", SimConfig()), ("doduc", SimConfig())]
        )
        total = sum(r.counters.instructions for r in results)
        registry = runner.observer.registry
        assert registry.value("engine.instructions") == total
        assert _plan_tasks(runner) == 2
        profile = runner.observer.profiler.summary()
        assert profile["pool.simulate"]["calls"] == 2


class TestResultMemo:
    """Both paths simulate each distinct cell once and count repeats
    as ``sweep.result_hits``."""

    JOBS = [
        ("li", SimConfig(policy=FetchPolicy.ORACLE)),
        ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
        ("li", SimConfig(policy=FetchPolicy.ORACLE)),
        ("li", SimConfig(policy=FetchPolicy.RESUME)),
        ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
    ]
    DISTINCT = 3

    def test_duplicate_cells_simulate_once_on_both_runners(self, plan_pool):
        observer = Observer(profiler=PhaseProfiler())
        serial = SimulationRunner(
            trace_length=3_000, warmup=600, seed=7, observer=observer
        )
        serial_results = [serial.run(name, config) for name, config in self.JOBS]
        pooled = _pooled(trace_length=3_000, warmup=600, profiler=True)
        assert pooled.run_jobs(self.JOBS) == serial_results
        assert _plan_tasks(pooled) == self.DISTINCT
        repeats = len(self.JOBS) - self.DISTINCT
        assert observer.profiler.summary()["simulate"]["calls"] == self.DISTINCT
        pool_profile = pooled.observer.profiler.summary()
        assert pool_profile["pool.simulate"]["calls"] == self.DISTINCT
        assert observer.registry.value("sweep.result_hits") == repeats
        assert observer.registry.as_dict() == without_plan_counters(
            pooled.observer.registry
        )
        for runner in (serial, pooled):
            assert runner.cells_requested == len(self.JOBS)
            assert runner.cells_simulated == self.DISTINCT
            assert runner.memo_hits == repeats

    def test_later_calls_are_served_from_the_memo(self, plan_pool):
        pooled = _pooled(trace_length=3_000, warmup=600)
        first = pooled.run_jobs(self.JOBS)
        before = pooled.observer.registry.as_dict()
        again = pooled.run_jobs(self.JOBS)
        assert all(a is b for a, b in zip(first, again, strict=True))
        after = pooled.observer.registry.as_dict()
        changed = {
            name: after[name] - before.get(name, 0)
            for name in after if after[name] != before.get(name)
        }
        assert changed == {"sweep.result_hits": len(self.JOBS)}
        assert pooled.cells_simulated == self.DISTINCT

"""Multi-process sweep runner."""

import pytest

from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.parallel import ParallelRunner
from repro.core.runner import SimulationRunner
from repro.errors import ExperimentError
from repro.obs import Observer, PhaseProfiler

TRACE = 15_000
WARMUP = 3_000


@pytest.fixture(scope="module")
def serial():
    return SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)


@pytest.fixture(scope="module")
def parallel():
    return ParallelRunner(
        trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2
    )


class TestValidation:
    def test_bad_trace_length(self):
        with pytest.raises(ExperimentError):
            ParallelRunner(trace_length=0)

    def test_bad_warmup(self):
        with pytest.raises(ExperimentError):
            ParallelRunner(trace_length=100, warmup=100)

    def test_bad_workers(self):
        with pytest.raises(ExperimentError):
            ParallelRunner(max_workers=0)


class TestRunJobs:
    def test_empty(self, parallel):
        assert parallel.run_jobs([]) == []

    def test_matches_serial_exactly(self, serial, parallel):
        jobs = [
            ("li", SimConfig(policy=FetchPolicy.RESUME)),
            ("li", SimConfig(policy=FetchPolicy.PESSIMISTIC)),
            ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
        ]
        parallel_results = parallel.run_jobs(jobs)
        for (name, config), presult in zip(jobs, parallel_results):
            sresult = serial.run(name, config)
            assert presult.penalties.as_dict() == sresult.penalties.as_dict()
            assert (
                presult.counters.right_misses == sresult.counters.right_misses
            )

    def test_job_order_preserved(self, parallel):
        jobs = [
            ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
            ("li", SimConfig(policy=FetchPolicy.ORACLE)),
            ("doduc", SimConfig(policy=FetchPolicy.PESSIMISTIC)),
        ]
        results = parallel.run_jobs(jobs)
        assert results[0].program == "doduc"
        assert results[1].program == "li"
        assert results[2].program == "doduc"
        assert results[2].config.policy is FetchPolicy.PESSIMISTIC

    def test_single_worker_path(self):
        runner = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=1
        )
        results = runner.run_jobs([("li", SimConfig())])
        assert results[0].program == "li"


class TestRunMatrix:
    def test_shape_matches_serial(self, serial, parallel):
        names = ("li", "doduc")
        policies = (FetchPolicy.ORACLE, FetchPolicy.RESUME)
        pmatrix = parallel.run_matrix(names, SimConfig(), policies)
        smatrix = serial.run_matrix(names, SimConfig(), policies)
        assert set(pmatrix) == set(smatrix)
        for name in names:
            for policy in policies:
                assert (
                    pmatrix[name][policy].total_ispi
                    == smatrix[name][policy].total_ispi
                )

    def test_all_policies_default(self, parallel):
        matrix = parallel.run_matrix(("li",), SimConfig())
        assert set(matrix["li"]) == set(ALL_POLICIES)


class TestWorkerErrorWrapping:
    """A worker crash must surface as ExperimentError naming the benchmark."""

    @staticmethod
    def _poisoned_config():
        # A frozen SimConfig that passes the constructor but detonates in
        # the worker when FetchEngine builds its prefetcher.
        config = SimConfig(prefetch=True)
        object.__setattr__(config, "prefetch_variant", "bogus")
        return config

    def test_pool_path_wraps_and_names_benchmark(self):
        runner = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2
        )
        jobs = [("li", SimConfig()), ("doduc", self._poisoned_config())]
        with pytest.raises(ExperimentError, match="doduc") as info:
            runner.run_jobs(jobs)
        assert info.value.benchmark == "doduc"
        assert info.value.__cause__ is not None

    def test_in_process_path_wraps_too(self):
        runner = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=1
        )
        with pytest.raises(ExperimentError, match="li") as info:
            runner.run_jobs([("li", self._poisoned_config())])
        assert info.value.benchmark == "li"


class TestBatchIntegrity:
    """A worker returning the wrong number of results must fail loudly.

    Regression: the result-scatter loop used unguarded zips, so a short
    batch silently truncated and surfaced later as a bogus 'produced no
    result' (or not at all with a duplicated batch)."""

    def test_short_batch_detected(self, monkeypatch):
        from repro.core import parallel as parallel_mod

        real = parallel_mod._run_benchmark_jobs

        def short(args):
            results, registry, profile = real(args)
            return results[:-1], registry, profile

        monkeypatch.setattr(parallel_mod, "_run_benchmark_jobs", short)
        runner = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=1
        )
        jobs = [
            ("li", SimConfig(policy=FetchPolicy.ORACLE)),
            ("li", SimConfig(policy=FetchPolicy.RESUME)),
        ]
        with pytest.raises(ExperimentError, match="li.*1 results for 2"):
            runner.run_jobs(jobs)


class TestCollectMetrics:
    def test_disabled_by_default(self, parallel):
        parallel.run_jobs([("li", SimConfig())])
        assert len(parallel.metrics) == 0

    def test_collects_when_enabled(self):
        runner = ParallelRunner(
            trace_length=TRACE,
            warmup=WARMUP,
            seed=7,
            max_workers=2,
            collect_metrics=True,
        )
        results = runner.run_jobs(
            [("li", SimConfig()), ("doduc", SimConfig())]
        )
        total = sum(r.counters.instructions for r in results)
        assert runner.metrics.value("engine.instructions") == total
        assert runner.profile.summary()["simulate"]["calls"] == 2


class TestResultMemo:
    """Both runners simulate each distinct cell once and count repeats
    as ``sweep.result_hits``."""

    JOBS = [
        ("li", SimConfig(policy=FetchPolicy.ORACLE)),
        ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
        ("li", SimConfig(policy=FetchPolicy.ORACLE)),
        ("li", SimConfig(policy=FetchPolicy.RESUME)),
        ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
    ]
    DISTINCT = 3

    def test_duplicate_cells_simulate_once_on_both_runners(self):
        observer = Observer(profiler=PhaseProfiler())
        serial = SimulationRunner(
            trace_length=3_000, warmup=600, seed=7, observer=observer
        )
        serial_results = [serial.run(name, config) for name, config in self.JOBS]
        parallel = ParallelRunner(
            trace_length=3_000, warmup=600, seed=7, max_workers=2,
            collect_metrics=True,
        )
        assert parallel.run_jobs(self.JOBS) == serial_results
        repeats = len(self.JOBS) - self.DISTINCT
        for profile in (observer.profiler, parallel.profile):
            assert profile.summary()["simulate"]["calls"] == self.DISTINCT
        assert observer.registry.value("sweep.result_hits") == repeats
        assert observer.registry.as_dict() == parallel.metrics.as_dict()
        for runner in (serial, parallel):
            assert runner.cells_requested == len(self.JOBS)
            assert runner.cells_simulated == self.DISTINCT
            assert runner.memo_hits == repeats

    def test_later_calls_are_served_from_the_memo(self):
        parallel = ParallelRunner(
            trace_length=3_000, warmup=600, seed=7, max_workers=2,
            collect_metrics=True,
        )
        first = parallel.run_jobs(self.JOBS)
        again = parallel.run_jobs(self.JOBS)
        assert all(a is b for a, b in zip(first, again, strict=True))
        assert parallel.metrics.as_dict() == {
            "sweep.result_hits": len(self.JOBS)
        }
        assert parallel.cells_simulated == self.DISTINCT

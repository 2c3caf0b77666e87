"""Retry, backoff, watchdog, and pool-rebuild behaviour of the runner
and of the sweep service's pool."""

import asyncio
import threading
import warnings

import pytest

from repro.config import FetchPolicy, SimConfig
import repro.service.server as server_module
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.runner import SimulationRunner
from repro.errors import InjectedFault
from repro.obs.observer import Observer
from repro.service.protocol import SweepRequest
from repro.service.server import SweepService

TRACE = 3_000
WARMUP = 600

ORACLE = SimConfig(policy=FetchPolicy.ORACLE)
RESUME = SimConfig(policy=FetchPolicy.RESUME)


def _plan(tmp_path, *specs):
    return FaultPlan(faults=list(specs), state_dir=str(tmp_path / "faults"))


@pytest.fixture(scope="module")
def clean():
    """Fault-free serial reference results."""
    runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
    return {
        ("li", "oracle"): runner.run("li", ORACLE),
        ("li", "resume"): runner.run("li", RESUME),
        ("doduc", "oracle"): runner.run("doduc", ORACLE),
    }


def _assert_identical(result, reference):
    assert result.penalties.as_dict() == reference.penalties.as_dict()
    assert result.counters.instructions == reference.counters.instructions
    assert result.total_ispi == reference.total_ispi


class TestSerialRetries:
    def test_transient_crash_is_retried_and_recovers(self, tmp_path, clean):
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            retries=1, backoff_base=0.0,
            fault_plan=_plan(
                tmp_path, FaultSpec(phase="simulate", kind="crash")
            ),
        )
        result = runner.run("li", ORACLE)
        _assert_identical(result, clean[("li", "oracle")])
        assert runner.fault_plan.fired_total() == 1

    def test_retry_budget_exhausted_raises(self, tmp_path):
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            retries=1, backoff_base=0.0,
            fault_plan=_plan(
                tmp_path,
                FaultSpec(phase="simulate", kind="crash", times=5),
            ),
        )
        with pytest.raises(InjectedFault):
            runner.run("li", ORACLE)
        # 1 initial attempt + 1 retry, each eating one ticket.
        assert runner.fault_plan.fired_total() == 2

    def test_deterministic_bug_fails_fast(self, tmp_path):
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            retries=5, backoff_base=0.0,
            fault_plan=_plan(
                tmp_path, FaultSpec(phase="simulate", kind="bug", times=5)
            ),
        )
        with pytest.raises(InjectedFault):
            runner.run("li", ORACLE)
        assert runner.fault_plan.fired_total() == 1  # no retries spent

    def test_skip_mode_returns_missing_result(self, tmp_path):
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            retries=0, on_error="skip",
            fault_plan=_plan(
                tmp_path, FaultSpec(phase="simulate", kind="bug")
            ),
        )
        result = runner.run("li", ORACLE)
        assert result.missing
        assert len(runner.failures) == 1
        assert runner.failures[0].benchmark == "li"
        assert not runner.failures[0].transient

    def test_backoff_is_bounded_exponential(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.core.runner.time.sleep", lambda s: sleeps.append(s)
        )
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            retries=3, backoff_base=0.5, backoff_cap=1.0,
            fault_plan=_plan(
                tmp_path,
                FaultSpec(phase="simulate", kind="crash", times=3),
            ),
        )
        runner.run("li", ORACLE)
        assert sleeps == [0.5, 1.0, 1.0]  # min(base * 2**(n-1), cap)

    def test_watchdog_kills_and_retries_slow_cell(self, tmp_path, clean):
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            retries=1, backoff_base=0.0, job_timeout=0.3,
            fault_plan=_plan(
                tmp_path,
                FaultSpec(phase="simulate", kind="delay", seconds=30.0),
            ),
        )
        result = runner.run("li", ORACLE)
        _assert_identical(result, clean[("li", "oracle")])

    def test_watchdog_timeout_raises_without_budget(self, tmp_path):
        from repro.errors import JobTimeoutError

        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            retries=0, job_timeout=0.3,
            fault_plan=_plan(
                tmp_path,
                FaultSpec(phase="simulate", kind="delay", seconds=30.0),
            ),
        )
        with pytest.raises(JobTimeoutError):
            runner.run("li", ORACLE)

    def test_watchdog_off_main_thread_warns_and_counts(self):
        # SIGALRM cannot be armed off the main thread: the runner must
        # say so once and count every cell that ran unguarded.
        observer = Observer()
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            job_timeout=30.0, observer=observer,
        )
        caught = []

        def sweep():
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                runner.run("li", ORACLE)
                runner.run("li", RESUME)
            caught.extend(records)

        thread = threading.Thread(target=sweep)
        thread.start()
        thread.join()
        inactive = [
            w for w in caught
            if w.category is RuntimeWarning and "job_timeout" in str(w.message)
        ]
        assert len(inactive) == 1
        assert observer.registry.value("sweep.watchdog_inactive") == 2


def _serve(tmp_path, jobs, plan, **kwargs):
    """Run *jobs* as one request through an in-process sweep service;
    returns the results and the (closed) service."""
    kwargs.setdefault("backoff_base", 0.0)
    service = SweepService(
        data_dir=tmp_path / "data", max_workers=2, fault_plan=plan, **kwargs
    )
    request = SweepRequest(
        cells=tuple(jobs), trace_length=TRACE, warmup=WARMUP, seed=7
    )

    async def go():
        try:
            return await service.handle_sweep(request)
        finally:
            await service.close()

    return asyncio.run(go()).results, service


class TestParallelRetries:
    """Pooled retries run in the sweep service's pool; the batch call
    ``SimulationRunner.run_jobs`` runs a faulted plan in process."""

    def test_worker_exit_rebuilds_pool_and_recovers(self, tmp_path, clean):
        """os._exit in a worker surfaces as BrokenProcessPool; the cell
        must be requeued onto a fresh pool and complete bit-identically."""
        results, service = _serve(
            tmp_path, [("li", ORACLE), ("doduc", ORACLE)],
            _plan(tmp_path, FaultSpec(phase="build", kind="exit")),
            retries=2,
        )
        _assert_identical(results[0], clean[("li", "oracle")])
        _assert_identical(results[1], clean[("doduc", "oracle")])
        assert service.registry.value("service.retries") >= 1
        assert service.registry.value("service.pool_rebuilds") >= 1

    def test_transient_crash_in_process_path(self, tmp_path, clean):
        observer = Observer()
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, observer=observer,
            retries=1, backoff_base=0.0,
            fault_plan=_plan(
                tmp_path, FaultSpec(phase="simulate", kind="crash")
            ),
        )
        results = runner.run_jobs([("li", ORACLE), ("li", RESUME)])
        _assert_identical(results[0], clean[("li", "oracle")])
        _assert_identical(results[1], clean[("li", "resume")])
        assert observer.registry.value("sweep.retries") == 1

    def test_deterministic_bug_fails_fast_with_benchmark(self, tmp_path):
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            retries=3, backoff_base=0.0,
            fault_plan=_plan(
                tmp_path,
                FaultSpec(phase="simulate", kind="bug", benchmark="li",
                          times=5),
            ),
        )
        with pytest.raises(InjectedFault, match="'li'") as info:
            runner.run_jobs([("li", ORACLE), ("doduc", ORACLE)])
        assert not info.value.transient
        assert runner.fault_plan.fired_total() == 1

    def test_skip_mode_degrades_batch_to_missing(self, tmp_path, clean):
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, observer=Observer(),
            retries=0, on_error="skip",
            fault_plan=_plan(
                tmp_path,
                FaultSpec(phase="simulate", kind="bug", benchmark="li",
                          times=2),
            ),
        )
        results = runner.run_jobs(
            [("li", ORACLE), ("doduc", ORACLE), ("li", RESUME)]
        )
        assert results[0].missing and results[2].missing
        _assert_identical(results[1], clean[("doduc", "oracle")])
        assert runner.observer.registry.value("sweep.skipped_cells") == 2
        # One failure per cell: the runner has no batches.
        assert [f.benchmark for f in runner.failures] == ["li", "li"]

    def test_backoff_uses_stubbed_sleep(self, tmp_path, monkeypatch):
        sleeps = []

        async def record(seconds):
            sleeps.append(seconds)

        monkeypatch.setattr(server_module, "_sleep", record)
        _serve(
            tmp_path, [("li", ORACLE)],
            _plan(
                tmp_path,
                FaultSpec(phase="simulate", kind="crash", times=2),
            ),
            retries=2, backoff_base=0.25, backoff_cap=10.0,
        )
        assert sleeps == [0.25, 0.5]

    def test_hung_worker_is_killed_and_requeued(self, tmp_path, clean):
        """A worker sleeping past job_timeout is torn down with the pool,
        charged one retry, and the cell recovers on a fresh pool."""
        results, service = _serve(
            tmp_path, [("li", ORACLE), ("doduc", ORACLE)],
            _plan(
                tmp_path,
                FaultSpec(phase="simulate", kind="delay", benchmark="li",
                          seconds=60.0),
            ),
            retries=1, job_timeout=2.0,
        )
        _assert_identical(results[0], clean[("li", "oracle")])
        _assert_identical(results[1], clean[("doduc", "oracle")])
        assert service.registry.value("service.timeouts") == 1
        assert service.registry.value("service.pool_rebuilds") >= 1

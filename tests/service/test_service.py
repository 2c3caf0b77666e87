"""SweepService in-process: scheduling, dedup, retries, recovery.

These tests drive the transport-free service object directly under
``asyncio.run`` — no sockets, no subprocesses — so each property
(dedup, fairness, backpressure, the retry/watchdog loop, journal
replay) is asserted in isolation from HTTP.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.results import MissingResult
from repro.errors import ServiceError
from repro.obs import RingBufferSink
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import SweepRequest
from repro.service.server import (
    _CellJob,
    _Overloaded,
    SweepService,
    render_metrics,
)

from tests.service.conftest import JOBS, SEED, TRACE, WARMUP, assert_results_identical


def _request(cells=None, client="alice", priority=0, on_error="raise"):
    return SweepRequest(
        cells=tuple(cells if cells is not None else JOBS),
        trace_length=TRACE,
        warmup=WARMUP,
        seed=SEED,
        client=client,
        priority=priority,
        on_error=on_error,
    )


def _service(tmp_path, **kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("backoff_base", 0.0)
    return SweepService(data_dir=tmp_path / "data", **kwargs)


async def _closed(service, coro):
    try:
        return await coro
    finally:
        await service.close()


class TestSweep:
    def test_results_bit_identical_and_store_warm(
        self, tmp_path, serial_reference
    ):
        reference, _ = serial_reference
        service = _service(tmp_path)

        async def go():
            first = await service.handle_sweep(_request())
            second = await service.handle_sweep(_request(client="bob"))
            return first, second

        first, second = asyncio.run(_closed(service, go()))
        assert_results_identical(first.results, reference)
        assert_results_identical(second.results, reference)
        assert first.stats["cells_simulated"] == len(JOBS)
        assert first.stats["store_hits"] == 0
        # The warm re-request performs ZERO simulations.
        assert second.stats["cells_simulated"] == 0
        assert second.stats["store_hits"] == len(JOBS)
        assert service.registry.value("service.cells_simulated") == len(JOBS)
        assert service.store.entries() == len(JOBS)

    def test_store_survives_service_restart(self, tmp_path, serial_reference):
        reference, _ = serial_reference
        first = _service(tmp_path)
        asyncio.run(_closed(first, first.handle_sweep(_request())))
        # A brand-new service over the same data dir: all store hits.
        second = _service(tmp_path)
        response = asyncio.run(
            _closed(second, second.handle_sweep(_request()))
        )
        assert_results_identical(response.results, reference)
        assert response.stats["cells_simulated"] == 0
        assert response.stats["store_hits"] == len(JOBS)
        assert second.registry.value("service.cells_simulated") == 0


class TestDedup:
    def test_duplicate_cells_within_a_request(self, tmp_path):
        cell = JOBS[0]
        service = _service(tmp_path)
        response = asyncio.run(
            _closed(
                service, service.handle_sweep(_request(cells=[cell, cell]))
            )
        )
        assert response.stats["cells_simulated"] == 1
        assert response.stats["deduped"] == 1
        assert_results_identical(
            response.results[1:], response.results[:1]
        )

    def test_concurrent_identical_requests_share_work(self, tmp_path):
        service = _service(tmp_path, max_workers=1)

        async def go():
            a = asyncio.ensure_future(
                service.handle_sweep(_request(client="alice"))
            )
            b = asyncio.ensure_future(
                service.handle_sweep(_request(client="bob"))
            )
            return await asyncio.gather(a, b)

        first, second = asyncio.run(_closed(service, go()))
        assert_results_identical(second.results, first.results)
        # The second requester awaited the first's futures: every cell
        # was simulated exactly once.
        assert service.registry.value("service.cells_simulated") == len(JOBS)
        assert service.registry.value("service.deduped") == len(JOBS)


class TestScheduler:
    def _job(self, client, priority, digest):
        return _CellJob(
            digest=digest, benchmark="li", config=SimConfig(),
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            client=client, priority=priority,
        )

    def _seed_queue(self, service, jobs):
        for job in jobs:
            queue = service._queues.get(job.client)
            if queue is None:
                queue = service._queues[job.client] = __import__(
                    "collections"
                ).deque()
                service._rotation.append(job.client)
            queue.append(job)
            service._queued += 1

    def test_priority_then_round_robin(self, tmp_path):
        service = _service(tmp_path)
        jobs = [
            self._job("alice", 0, "a1"),
            self._job("alice", 0, "a2"),
            self._job("bob", 5, "b1"),
            self._job("carol", 0, "c1"),
        ]
        self._seed_queue(service, jobs)
        order = []
        while True:
            job = service._next_job()
            if job is None:
                break
            order.append(job.digest)
        # Bob's high-priority cell first; then alice/carol round-robin.
        assert order[0] == "b1"
        assert order[1:3] == ["a1", "c1"]
        assert order[3] == "a2"
        assert service._queued == 0
        assert service._queues == {}

    def test_one_client_cannot_starve_another(self, tmp_path):
        service = _service(tmp_path)
        jobs = [self._job("hog", 0, f"h{i}") for i in range(4)]
        jobs.insert(2, self._job("small", 0, "s1"))
        self._seed_queue(service, jobs)
        order = [service._next_job().digest for _ in range(5)]
        # The single-cell client is served within one rotation, not
        # after the hog's whole backlog.
        assert order.index("s1") <= 1


class TestBackpressure:
    def test_overload_rejects_and_rolls_back(self, tmp_path):
        service = _service(tmp_path, queue_limit=1)

        async def go():
            with pytest.raises(_Overloaded):
                await service.handle_sweep(_request())
            # Rejection admitted nothing: no inflight leaks, no queue.
            assert service._inflight == {}
            assert service._queued == 0

        asyncio.run(_closed(service, go()))
        assert service.registry.value("service.rejected") == 1

    def test_overloaded_is_a_service_error(self):
        # The client maps it to 429 + retry; the taxonomy still owns it.
        assert issubclass(_Overloaded, ServiceError)

    def test_bad_construction_rejected(self, tmp_path):
        for kwargs in (
            {"queue_limit": 0},
            {"retries": -1},
            {"backoff_base": -0.1},
            {"job_timeout": 0},
            {"max_workers": 0},
        ):
            with pytest.raises(ServiceError):
                SweepService(data_dir=tmp_path / "data", **kwargs)


class TestFaultContainment:
    def test_transient_fault_retries_to_success(
        self, tmp_path, serial_reference
    ):
        reference, _ = serial_reference
        plan = FaultPlan(
            faults=[FaultSpec(phase="dispatch", kind="crash", benchmark="li")],
            state_dir=str(tmp_path / "faults"),
        )
        sink = RingBufferSink()
        service = _service(tmp_path, retries=3, fault_plan=plan, sink=sink)
        response = asyncio.run(
            _closed(service, service.handle_sweep(_request()))
        )
        assert_results_identical(response.results, reference)
        assert service.registry.value("service.retries") >= 1
        kinds = {event.kind for event in sink.events()}
        assert "retry" in kinds and "request" in kinds

    def test_deterministic_fault_fails_fast_and_skips(self, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec(phase="dispatch", kind="bug", benchmark="li")],
            state_dir=str(tmp_path / "faults"),
        )
        service = _service(tmp_path, retries=3, fault_plan=plan)
        response = asyncio.run(
            _closed(
                service, service.handle_sweep(_request(on_error="skip"))
            )
        )
        assert len(response.failures) == 1
        failure = response.failures[0]
        assert failure.benchmark == "li"
        assert failure.transient is False
        assert failure.attempts == 1  # deterministic: never retried
        assert isinstance(response.results[0], MissingResult)
        # The other cells completed normally.
        assert sum(
            1 for r in response.results if isinstance(r, MissingResult)
        ) == 1
        assert service.registry.value("service.failures") == 1

    def test_on_error_raise_propagates(self, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec(phase="dispatch", kind="bug", benchmark="li")],
            state_dir=str(tmp_path / "faults"),
        )
        service = _service(tmp_path, retries=0, fault_plan=plan)
        with pytest.raises(ServiceError, match="cells failed"):
            asyncio.run(
                _closed(service, service.handle_sweep(_request()))
            )

    def test_watchdog_kills_hung_cell_and_recovers(
        self, tmp_path, serial_reference
    ):
        reference, _ = serial_reference
        plan = FaultPlan(
            faults=[
                FaultSpec(
                    phase="simulate", kind="delay", benchmark="li",
                    seconds=30.0,
                )
            ],
            state_dir=str(tmp_path / "faults"),
        )
        service = _service(
            tmp_path, retries=2, job_timeout=1.0, fault_plan=plan,
            max_workers=1,
        )
        response = asyncio.run(
            _closed(service, service.handle_sweep(_request()))
        )
        assert_results_identical(response.results, reference)
        assert service.registry.value("service.timeouts") >= 1
        assert service.registry.value("service.pool_rebuilds") >= 1


class TestRecovery:
    def test_journalled_request_replays_into_the_store(self, tmp_path):
        from repro.service.protocol import encode_request

        service = _service(tmp_path)
        service.journal.record(encode_request(_request()))

        async def go():
            started = service.recover()
            while service._tasks:
                await asyncio.sleep(0.01)
            return started

        started = asyncio.run(_closed(service, go()))
        assert started == 1
        assert service.store.entries() == len(JOBS)
        assert service.registry.value("service.recovered_requests") == 1
        assert service.journal.pending() == []  # discarded once replayed

    def test_undecodable_journal_entry_dropped(self, tmp_path):
        service = _service(tmp_path)
        service.journal.record(b"\x00 torn beyond recognition \x00")

        async def go():
            service.recover()
            while service._tasks:
                await asyncio.sleep(0.01)

        asyncio.run(_closed(service, go()))
        assert service.journal.unrecoverable == 1
        assert service.journal.pending() == []
        assert service.store.entries() == 0

    def test_journal_failure_is_counted_on_healthz(self, tmp_path):
        service = _service(tmp_path)
        assert service.counters()["service.journal_failures"] == 0
        service.journal.root.parent.mkdir(parents=True, exist_ok=True)
        service.journal.root.write_text("a file, not a directory")
        with pytest.warns(RuntimeWarning, match="request journal disabled"):
            assert service.journal.record(b"body") is None
        asyncio.run(_closed(service, asyncio.sleep(0)))
        assert service.counters()["service.journal_failures"] == 1


class TestMetricsRendering:
    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.inc("service.requests", 3)
        histogram = registry.histogram(
            "service.request_cells", bounds=(1, 10)
        )
        histogram.observe(2)
        histogram.observe(50)
        text = render_metrics(registry)
        assert "# TYPE repro_service_requests counter" in text
        assert "repro_service_requests 3" in text
        assert 'repro_service_request_cells_bucket{le="10"} 1' in text
        assert 'repro_service_request_cells_bucket{le="+Inf"} 2' in text
        assert "repro_service_request_cells_count 2" in text
        assert text.endswith("\n")

"""The sweep job server: asyncio scheduling over the process-pool worker.

One :class:`SweepService` owns four pieces of shared state:

* a content-addressed :class:`~repro.core.store.ResultStore` — every
  finished cell is persisted *before* its response is sent, so a result,
  once computed, is never computed again (across clients, across
  requests, across server restarts);
* an **in-flight table** keyed by cell digest — a second request for a
  cell that is already queued or simulating awaits the first request's
  :class:`asyncio.Future` instead of enqueueing a duplicate;
* a **fair scheduler** — per-client FIFO queues drained round-robin,
  with higher ``priority`` requests served first at each pick, so one
  client's thousand-cell sweep cannot starve another's single cell;
* a **process pool** of spawned workers, each running one cell per call
  (:func:`~repro.core.worker.serve_cell`), so a served cell is
  bit-identical to a local run.

Crash containment is first-class, reusing the PR 3 failure taxonomy
(:func:`~repro.core.faults.is_transient`):

* transient cell failures retry with deterministic exponential backoff,
  deterministic ones fail fast;
* a watchdog (``job_timeout``) kills and rebuilds the pool around hung
  cells;
* admission is bounded (``queue_limit``) with 429-style rejection;
* ``on_error="skip"`` degrades a request's dead cells to
  ``MissingResult`` placeholders plus a structured failure report;
* admitted requests are journalled
  (:class:`~repro.service.recovery.RequestJournal`) and replayed after a
  server crash;
* :data:`~repro.core.faults.SERVICE_PHASES` fault hooks (``dispatch``,
  ``store_write``, ``response``) let the chaos suite strike the service
  itself, not just its workers.

``GET /healthz`` and a Prometheus-style ``GET /metrics`` expose the
service's :class:`~repro.obs.metrics.MetricsRegistry`.  The HTTP layer
is a deliberately tiny hand-rolled HTTP/1.1 subset (one request per
connection, ``Connection: close``) — the stdlib is the only dependency
this repo allows itself.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.faults import FaultPlan, is_transient
from repro.core.lifeline import terminate_pool
from repro.core.results import MissingResult, SweepFailure
from repro.core.store import ResultStore, cell_digest
from repro.core.worker import _pool_worker, serve_cell
from repro.errors import InjectedFault, JobTimeoutError, ServiceError
from repro.obs.events import EventSink, NullSink, ServiceIncident
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.service.protocol import (
    SweepRequest,
    SweepResponse,
    decode_request,
    encode_response,
    error_body,
)
from repro.service.recovery import RequestJournal

#: Client identity stamped on journal-replayed work in incident events.
RECOVERY_CLIENT = "__recovery__"

#: Injectable async sleep (tests stub this out for fast backoff asserts).
_sleep = asyncio.sleep

#: Every counter the service publishes, pre-registered at zero so
#: ``/healthz`` and ``/metrics`` expose the full set from the first
#: scrape (a counter that appears only once nonzero breaks rate()).
SERVICE_COUNTERS = (
    "service.requests",
    "service.cells_requested",
    "service.rejected",
    "service.store_hits",
    "service.deduped",
    "service.cells_simulated",
    "service.retries",
    "service.timeouts",
    "service.failures",
    "service.pool_rebuilds",
    "service.recovered_requests",
)


class _Overloaded(ServiceError):
    """Admission refused: the bounded queue is full (HTTP 429).

    A :class:`ServiceError` subtype so the taxonomy still classifies it,
    but handled before its base everywhere: unlike other service errors
    it is *retryable* — the client backs off and resubmits.
    """


@dataclass
class _CellJob:
    """One unit of scheduled work: a single (benchmark, config) cell."""

    digest: str
    benchmark: str
    config: object
    trace_length: int
    warmup: int
    seed: int
    client: str
    priority: int
    future: asyncio.Future = field(repr=False, default=None)  # type: ignore[assignment]
    attempts: int = 0


class SweepService:
    """Scheduling, caching, and fault-containment logic of the server.

    Transport-free: the HTTP layer below feeds it raw request bodies and
    writes back whatever it returns, so tests can drive the service
    in-process without a socket.
    """

    def __init__(
        self,
        data_dir: str | os.PathLike[str],
        max_workers: int | None = None,
        queue_limit: int = 256,
        retries: int = 2,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        job_timeout: float | None = None,
        cache_dir: str | None = None,
        sink: EventSink | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1: {queue_limit}")
        if retries < 0:
            raise ServiceError(f"retries must be >= 0: {retries}")
        if backoff_base < 0 or backoff_cap < 0:
            raise ServiceError("backoff must be >= 0")
        if job_timeout is not None and job_timeout <= 0:
            raise ServiceError(f"job_timeout must be > 0: {job_timeout}")
        data_dir = Path(data_dir)
        self.data_dir = data_dir
        self.store = ResultStore(data_dir / "results")
        self.journal = RequestJournal(data_dir / "jobs")
        #: Shared artifact cache handed to workers (programs, traces,
        #: prediction streams); defaults to living beside the store.
        self.cache_dir = (
            str(data_dir / "artifacts") if cache_dir is None else cache_dir
        )
        self.max_workers = (
            max_workers if max_workers is not None else (os.cpu_count() or 1)
        )
        if self.max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1: {self.max_workers}")
        self.queue_limit = queue_limit
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.job_timeout = job_timeout
        self.registry = MetricsRegistry()
        for name in SERVICE_COUNTERS:
            self.registry.counter(name)
        self.sink: EventSink = sink if sink is not None else NullSink()
        self.fault_plan = fault_plan
        # Scheduler state (single event loop: no locks needed).
        self._inflight: dict[str, _CellJob] = {}
        self._queues: dict[str, deque[_CellJob]] = {}
        self._rotation: deque[str] = deque()
        self._queued = 0
        self._active = 0
        self._tasks: set[asyncio.Task] = set()
        self._pool: ProcessPoolExecutor | None = None
        self._warmed_pool: ProcessPoolExecutor | None = None
        self._pool_generation = 0
        self._stopping = asyncio.Event()

    # -- observability --------------------------------------------------------

    def _incident(
        self, kind: str, client: str, benchmark: str = "",
        detail: str = "", attempt: int = 0,
    ) -> None:
        if self.sink.enabled:
            self.sink.emit(ServiceIncident(
                t=0, client=client, kind=kind, benchmark=benchmark,
                detail=detail, attempt=attempt,
            ))

    def counters(self) -> dict[str, int]:
        """Current service counters plus store traffic, for ``/healthz``."""
        snapshot = {
            name: metric.value
            for name, metric in (
                (n, self.registry.get(n)) for n in self.registry.names()
            )
            if isinstance(metric, Counter)
        }
        snapshot.update(
            {
                "service.store_entries": self.store.entries(),
                "service.store_failures": self.store.store_failures,
                "service.journal_failures": self.journal.store_failures,
            }
        )
        return snapshot

    # -- admission ------------------------------------------------------------

    def admit(self, request: SweepRequest) -> tuple[list, dict[str, int]]:
        """Admit one request; returns per-cell entries plus admission stats.

        Each entry is either a finished result (store hit) or a
        :class:`_CellJob` whose future resolves when the cell completes
        (freshly enqueued, or an in-flight job another request already
        owns — the dedup path).  Raises :class:`_Overloaded` (and admits
        nothing) when the new work would overflow the bounded queue.
        """
        loop = asyncio.get_running_loop()
        entries: list = []
        new_jobs: list[_CellJob] = []
        stats = {"store_hits": 0, "deduped": 0}
        self.registry.inc("service.requests")
        self.registry.inc("service.cells_requested", len(request.cells))
        self._incident(
            "request", request.client, detail=f"{len(request.cells)} cells",
        )
        for benchmark, config in request.cells:
            digest = cell_digest(
                benchmark, config, request.trace_length, request.warmup,
                request.seed,
            )
            job = self._inflight.get(digest)
            if job is not None:
                self.registry.inc("service.deduped")
                self._incident("dedup", request.client, benchmark=benchmark)
                stats["deduped"] += 1
                entries.append(job)
                continue
            result = self.store.load(
                digest, benchmark, config, request.trace_length,
                request.warmup, request.seed,
            )
            if result is not None:
                self.registry.inc("service.store_hits")
                stats["store_hits"] += 1
                entries.append(result)
                continue
            job = _CellJob(
                digest=digest,
                benchmark=benchmark,
                config=config,
                trace_length=request.trace_length,
                warmup=request.warmup,
                seed=request.seed,
                client=request.client,
                priority=request.priority,
                future=loop.create_future(),
            )
            # Register immediately so a duplicate digest later in this
            # same request dedups against it; rolled back on rejection.
            self._inflight[digest] = job
            new_jobs.append(job)
            entries.append(job)
        if new_jobs and (
            self._queued + self._active + len(new_jobs) > self.queue_limit
        ):
            for job in new_jobs:
                del self._inflight[job.digest]
            self.registry.inc("service.rejected")
            self._incident(
                "reject", request.client,
                detail=f"{len(new_jobs)} new cells over limit "
                f"{self.queue_limit}",
            )
            raise _Overloaded(
                f"queue limit {self.queue_limit} reached "
                f"({self._queued} queued, {self._active} active); retry later"
            )
        for job in new_jobs:
            queue = self._queues.get(job.client)
            if queue is None:
                queue = self._queues[job.client] = deque()
                self._rotation.append(job.client)
            queue.append(job)
            self._queued += 1
        stats["new"] = len(new_jobs)
        self._pump()
        return entries, stats

    # -- fair scheduling ------------------------------------------------------

    def _next_job(self) -> _CellJob | None:
        """Highest head-priority client wins; rotation order breaks ties."""
        best_client: str | None = None
        best_priority: int | None = None
        for client in self._rotation:
            head = self._queues[client][0]
            if best_priority is None or head.priority > best_priority:
                best_client, best_priority = client, head.priority
        if best_client is None:
            return None
        job = self._queues[best_client].popleft()
        self._rotation.remove(best_client)
        if self._queues[best_client]:
            self._rotation.append(best_client)
        else:
            del self._queues[best_client]
        self._queued -= 1
        return job

    def _pump(self) -> None:
        """Start queued jobs while pool slots are free."""
        while self._active < self.max_workers:
            job = self._next_job()
            if job is None:
                return
            self._active += 1
            task = asyncio.get_running_loop().create_task(self._run_job(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    # -- execution ------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # ``spawn``, never ``fork``: workers are created lazily (and
            # re-created after a watchdog rebuild) while client
            # connections are open, and a forked worker would inherit
            # those connection fds — after a server crash the orphaned
            # worker keeps the socket open and the client blocks in
            # ``recv`` forever instead of seeing EOF.  A spawned worker
            # execs a fresh interpreter, so non-inheritable fds never
            # leak into it.  Each worker holds the workload of its last
            # cell, so a run of one benchmark's cells loads it once.
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_pool_worker,
            )
        return self._pool

    async def _pool_ready(self) -> ProcessPoolExecutor:
        """The pool with every worker booted — spawn cost off the job clock.

        Workers spawn lazily on first submit, and each boots a fresh
        interpreter (module imports included) before touching its first
        payload.  The watchdog must time the *cell*, not that boot, so a
        fresh pool first runs one no-op per slot — submitted back to
        back, before any worker can go idle, so each forces one spawn —
        and waits for them all.  The no-op is the pool initializer
        itself (idempotent), so a worker unpickles nothing from
        :mod:`repro.service` and never imports the asyncio server.
        """
        pool = self._ensure_pool()
        if pool is not self._warmed_pool:
            loop = asyncio.get_running_loop()
            await asyncio.gather(*(
                loop.run_in_executor(pool, _pool_worker)
                for _ in range(self.max_workers)
            ))
            self._warmed_pool = pool
        return pool

    async def _rebuild_pool(self, generation: int) -> None:
        """Tear down a damaged/hung pool and let the next job rebuild it.

        Guarded by a generation counter: concurrent jobs that all saw
        the same broken pool trigger exactly one teardown.
        """
        if generation != self._pool_generation or self._pool is None:
            return
        pool = self._pool
        self._pool = None
        self._pool_generation += 1
        self.registry.inc("service.pool_rebuilds")
        # terminate + join can block for seconds: do it off-loop.
        await asyncio.get_running_loop().run_in_executor(
            None, terminate_pool, pool
        )

    async def _execute(self, job: _CellJob) -> object:
        """Run one cell to completion: retries, watchdog, store write."""
        loop = asyncio.get_running_loop()
        while True:
            job.attempts += 1
            generation = self._pool_generation
            try:
                if self.fault_plan is not None:
                    # A "delay" fault sleeps on purpose: dispatch-phase
                    # faults model a stalled loop, latency included.
                    self.fault_plan.fire("dispatch", job.benchmark)
                payload = (
                    job.benchmark, job.config, job.trace_length,
                    job.warmup, job.seed, self.cache_dir, self.fault_plan,
                )
                pool = await self._pool_ready()
                future = loop.run_in_executor(pool, serve_cell, payload)
                if self.job_timeout is not None:
                    result = await asyncio.wait_for(future, self.job_timeout)
                else:
                    result = await future
                spec = None
                if self.fault_plan is not None:
                    # Same as dispatch: injected store_write delays are
                    # meant to stall the loop.
                    spec = self.fault_plan.fire("store_write", job.benchmark)
            except asyncio.CancelledError:
                raise
            except TimeoutError:
                # The hung worker still owns a pool slot: kill the pool.
                self.registry.inc("service.timeouts")
                self._incident(
                    "timeout", job.client, benchmark=job.benchmark,
                    attempt=job.attempts,
                )
                await self._rebuild_pool(generation)
                exc: Exception = JobTimeoutError(
                    f"cell {job.benchmark!r} exceeded "
                    f"job_timeout={self.job_timeout}s and was killed"
                )
                if job.attempts <= self.retries:
                    await self._backoff(job)
                    continue
                raise exc from None
            except Exception as exc:
                if isinstance(exc, BrokenExecutor):
                    await self._rebuild_pool(generation)
                if is_transient(exc) and job.attempts <= self.retries:
                    self._incident(
                        "retry", job.client, benchmark=job.benchmark,
                        detail=type(exc).__name__, attempt=job.attempts,
                    )
                    await self._backoff(job)
                    continue
                raise
            self.store.store(
                job.digest, job.benchmark, job.config, job.trace_length,
                job.warmup, job.seed, result,
            )
            if spec is not None and spec.kind == "corrupt":
                # Model a torn write landing after the fact: the entry
                # exists but its bytes are garbage.  The store must treat
                # it as a miss and the next request re-simulates.
                self._corrupt_store_entry(job.digest)
            return result

    async def _backoff(self, job: _CellJob) -> None:
        self.registry.inc("service.retries")
        await _sleep(
            min(self.backoff_base * (2 ** (job.attempts - 1)), self.backoff_cap)
        )

    def _corrupt_store_entry(self, digest: str) -> None:
        if not self.store.enabled:
            return
        path = self.store.entry_path(digest)
        if path.is_file():
            path.write_bytes(b"\x00corrupted-by-fault-injection\x00")

    async def _run_job(self, job: _CellJob) -> None:
        """Job wrapper: resolve the future, release the slot, pump."""
        try:
            result = await self._execute(job)
        except asyncio.CancelledError:
            self._inflight.pop(job.digest, None)
            if not job.future.done():
                job.future.cancel()
            raise
        except Exception as exc:
            self.registry.inc("service.failures")
            self._incident(
                "failure", job.client, benchmark=job.benchmark,
                detail=f"{type(exc).__name__}: {exc}", attempt=job.attempts,
            )
            exc.attempts = job.attempts  # type: ignore[attr-defined]
            self._inflight.pop(job.digest, None)
            if not job.future.done():
                job.future.set_exception(exc)
        else:
            self.registry.inc("service.cells_simulated")
            self._inflight.pop(job.digest, None)
            if not job.future.done():
                job.future.set_result(result)
        finally:
            self._active -= 1
            self._pump()

    # -- request handling -----------------------------------------------------

    async def handle_sweep(self, request: SweepRequest) -> SweepResponse:
        """Admit and await one request; the whole service in one call."""
        # Admission reads cached results synchronously on purpose: the
        # journal must record the request *before* any job dispatches,
        # and the store reads are small local files on the admission
        # path.  Moving them off-loop would reorder crash recovery.
        entries, admit_stats = self.admit(request)
        results: list = []
        failures: list[SweepFailure] = []
        for entry in entries:
            if not isinstance(entry, _CellJob):
                results.append(entry)
                continue
            try:
                results.append(await entry.future)
            except Exception as exc:
                failures.append(
                    SweepFailure(
                        benchmark=entry.benchmark,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        attempts=getattr(exc, "attempts", 1),
                        transient=is_transient(exc),
                        cells=1,
                    )
                )
                results.append(
                    MissingResult(
                        program=entry.benchmark, config=entry.config
                    )
                )
        if failures and request.on_error == "raise":
            raise ServiceError(
                f"{len(failures)} of {len(request.cells)} cells failed "
                "(on_error='raise'): "
                + "; ".join(f.describe() for f in failures)
            )
        return SweepResponse(
            results=tuple(results),
            failures=tuple(failures),
            stats={
                "cells": len(request.cells),
                "store_hits": admit_stats["store_hits"],
                "deduped": admit_stats["deduped"],
                "cells_simulated": admit_stats["new"],
                "failed": len(failures),
            },
        )

    # -- crash recovery -------------------------------------------------------

    def recover(self) -> int:
        """Replay journalled requests from before a crash (background).

        Each pending body re-enters the normal admission path under its
        original client identity: cells that finished before the crash
        hit the result store instantly, the rest re-simulate.  The
        journal entry is discarded once the replay settles (the original
        client never got a response and will retry; its retry then hits
        the warm store).  Returns the number of replays started.
        """
        pending = self.journal.pending()
        for token, body in pending:
            self.registry.inc("service.recovered_requests")
            task = asyncio.get_running_loop().create_task(
                self._replay(token, body)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        return len(pending)

    async def _replay(self, token: str, body: bytes) -> None:
        try:
            request = decode_request(body)
        except ServiceError:
            # Torn journal entry: unrecoverable by design, drop it.
            self.journal.unrecoverable += 1
            self.journal.discard(token)
            return
        self._incident(
            "recovered", RECOVERY_CLIENT,
            detail=f"client={request.client} cells={len(request.cells)}",
        )
        try:
            await self.handle_sweep(request)
        except _Overloaded:
            return  # keep the entry; the next restart retries it
        except ServiceError as exc:
            # on_error="raise" with dead cells: the original client never
            # got an answer and will re-request; nothing left to replay.
            self._incident("failure", RECOVERY_CLIENT, detail=str(exc))
        self.journal.discard(token)

    # -- lifecycle ------------------------------------------------------------

    def request_stop(self) -> None:
        self._stopping.set()

    async def wait_stopped(self) -> None:
        await self._stopping.wait()

    async def close(self) -> None:
        """Cancel outstanding work and kill the pool."""
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                continue
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            await asyncio.get_running_loop().run_in_executor(
                None, terminate_pool, pool
            )


# -- Prometheus-style exposition ----------------------------------------------


def render_metrics(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters become ``repro_<name>`` gauges (dots to underscores);
    histograms expose cumulative ``_bucket{le="..."}`` series plus
    ``_sum`` and ``_count``, matching what a Prometheus scraper expects.
    """
    lines: list[str] = []
    for name in registry.names():
        metric = registry.get(name)
        flat = "repro_" + name.replace(".", "_").replace("-", "_")
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {flat} counter")
            lines.append(f"{flat} {metric.value}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {flat} histogram")
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                lines.append(f'{flat}_bucket{{le="{bound}"}} {cumulative}')
            cumulative += metric.counts[-1]
            lines.append(f'{flat}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{flat}_sum {metric.total}")
            lines.append(f"{flat}_count {metric.count}")
    return "\n".join(lines) + "\n"


# -- the HTTP layer -----------------------------------------------------------

#: Largest request body the server will read (guards the journal and
#: the unpickler against a runaway client).
MAX_BODY = 64 * 1024 * 1024


class ServiceServer:
    """Minimal HTTP/1.1 front end for a :class:`SweepService`.

    One request per connection (``Connection: close``): sweep requests
    are long-lived and bounded in number by the queue limit, so
    keep-alive buys nothing but parser state.
    """

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self._server: asyncio.AbstractServer | None = None
        #: ``(host, port)`` after a TCP bind, ``path`` after a UNIX bind.
        self.address: object = None

    async def start(self, listen: str) -> None:
        """Bind and start serving.  *listen* is ``host:port`` (port 0 for
        ephemeral) or ``unix:<path>``."""
        # Construct the worker pool before the first connection exists.
        # Workers themselves spawn lazily in a fresh interpreter (see
        # ``_ensure_pool``), so they never hold connection fds; clients
        # delimit responses by Content-Length regardless (see
        # ``ServiceClient._once``).
        self.service._ensure_pool()
        if listen.startswith("unix:"):
            path = listen[len("unix:"):]
            self._server = await asyncio.start_unix_server(
                self._handle, path=path
            )
            self.address = path
        else:
            host, _, port_text = listen.rpartition(":")
            if not host:
                raise ServiceError(
                    f"listen address {listen!r} must be host:port or unix:path"
                )
            try:
                port = int(port_text)
            except ValueError:
                raise ServiceError(f"bad listen port {port_text!r}") from None
            self._server = await asyncio.start_server(
                self._handle, host=host, port=port
            )
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]
        self.service.recover()

    async def serve_forever(self) -> None:
        """Serve until :meth:`SweepService.request_stop` fires."""
        assert self._server is not None
        async with self._server:
            await self._server.start_serving()
            await self.service.wait_stopped()
        await self.service.close()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        after_send = None
        try:
            try:
                method, path = await self._read_head(reader)
                length = await self._read_headers(reader)
                body = await reader.readexactly(length) if length else b""
            except ServiceError as exc:
                writer.write(
                    _response_bytes(
                        400, "application/json", error_body(str(exc))
                    )
                )
                await writer.drain()
                return
            status, ctype, payload, after_send = await self._route(
                method, path, body
            )
            if (
                path == "/v1/sweep" and status == 200
                and self.service.fault_plan is not None
            ):
                try:
                    self.service.fault_plan.fire("response", "")
                except InjectedFault as exc:
                    # The response was lost in flight: the client sees a
                    # 503 (or a dead socket for `exit` faults) and
                    # retries; the journal entry survives for recovery.
                    self.service._incident(
                        "response_fault", "", detail=str(exc)
                    )
                    status, ctype = 503, "application/json"
                    payload = error_body(f"response fault injected: {exc}")
                    after_send = None
            writer.write(_response_bytes(status, ctype, payload))
            await writer.drain()
            if after_send is not None:
                after_send()
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                ValueError) as exc:
            self.service._incident("failure", "", detail=f"http: {exc}")
        finally:
            writer.close()
            # Peer-reset sockets can fail their closing handshake; that
            # is the peer's problem, not the server's.
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                return

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) -> tuple[str, str]:
        line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        parts = line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ServiceError(f"bad request line {line!r}")
        return parts[0].upper(), parts[1]

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader) -> int:
        """Consume headers; returns the Content-Length (0 if absent)."""
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                return length
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ServiceError(
                        f"bad Content-Length {value!r}"
                    ) from None
                if not 0 <= length <= MAX_BODY:
                    raise ServiceError(f"unacceptable Content-Length {length}")

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes, object]:
        """Dispatch one request; returns (status, ctype, body, after_send)."""
        service = self.service
        if method == "GET" and path == "/healthz":
            payload = json.dumps(
                {
                    "status": "ok",
                    "counters": service.counters(),
                    "inflight": len(service._inflight),
                    "queued": service._queued,
                    "active": service._active,
                },
                separators=(",", ":"),
            ).encode("utf-8")
            return 200, "application/json", payload, None
        if method == "GET" and path == "/metrics":
            text = render_metrics(service.registry)
            return 200, "text/plain; version=0.0.4", text.encode("utf-8"), None
        if method == "POST" and path == "/v1/shutdown":
            service.request_stop()
            return (
                200, "application/json",
                json.dumps({"status": "stopping"}).encode("utf-8"), None,
            )
        if method == "POST" and path == "/v1/sweep":
            return await self._route_sweep(body)
        return 404, "application/json", error_body(f"no route {method} {path}"), None

    async def _route_sweep(
        self, body: bytes
    ) -> tuple[int, str, bytes, object]:
        service = self.service
        token = service.journal.record(body)
        try:
            request = decode_request(body)
        except ServiceError as exc:
            service.journal.discard(token)
            return 400, "application/json", error_body(str(exc)), None
        try:
            response = await service.handle_sweep(request)
        except _Overloaded as exc:
            service.journal.discard(token)
            return 429, "application/json", error_body(str(exc)), None
        except ServiceError as exc:
            # on_error="raise" with dead cells: deterministic for this
            # request — answer 500 and drop the journal entry (replaying
            # it after a crash would just re-fail).
            service.journal.discard(token)
            return 500, "application/json", error_body(str(exc)), None
        payload = encode_response(response)
        return (
            200, "application/json", payload,
            lambda: service.journal.discard(token),
        )


def _response_bytes(status: int, ctype: str, payload: bytes) -> bytes:
    reason = {
        200: "OK", 400: "Bad Request", 404: "Not Found",
        429: "Too Many Requests", 500: "Internal Server Error",
        503: "Service Unavailable",
    }.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + payload

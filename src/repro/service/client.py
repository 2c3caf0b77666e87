"""Blocking client for the sweep service, plus a runner-shaped facade.

:class:`ServiceClient` speaks the server's one-request-per-connection
HTTP/1.1 subset over plain sockets (TCP or UNIX).  Its retry policy is
the client half of the failure taxonomy: *transport* trouble — a dead
connection, a torn response, a 429 (queue full) or 503 (injected
response fault) — retries with deterministic exponential backoff,
because the server journals admitted work and dedups by content address,
so a retried request is idempotent and usually cheap.  Protocol-level
failures — 400 (malformed request) and 500 (dead cells under
``on_error="raise"``) — raise :class:`~repro.errors.ServiceError` and
are never retried: they reproduce identically.

:class:`RemoteRunner` wraps a client in the
:class:`~repro.core.runner.SimulationRunner` sweep API (``run``,
``run_policies``, ``run_suite``, ``run_matrix``, ``failures``) so the
experiment layer can target a server with ``repro-experiments
--server ADDRESS`` and not know the difference.
"""

from __future__ import annotations

import json
import socket
import time
import warnings

from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.results import MissingResult, SimulationResult, SweepFailure
from repro.core.runner import DEFAULT_TRACE_LENGTH, DEFAULT_WARMUP
from repro.errors import ExperimentError, ServiceError
from repro.service.protocol import (
    DEFAULT_CLIENT,
    SweepRequest,
    SweepResponse,
    decode_error,
    decode_response,
    encode_request,
)

#: Injectable sleep (tests stub this out to keep backoff assertions fast).
_sleep = time.sleep

#: HTTP statuses that signal "try again later", per the server contract.
RETRYABLE_STATUSES = (429, 503)


class ServiceClient:
    """One server address plus a transport-level retry policy."""

    def __init__(
        self,
        address: str,
        retries: int = 5,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        timeout: float | None = 600.0,
    ) -> None:
        if retries < 0:
            raise ServiceError(f"retries must be >= 0: {retries}")
        self.address = address
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self._family, self._target = _parse_address(address)
        #: Transport-level retries performed so far (for tests/tools).
        self.transport_retries = 0

    # -- transport ------------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.socket(self._family, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._target)
        return sock

    def _once(self, method: str, path: str, body: bytes) -> tuple[int, bytes]:
        """One request/response exchange on a fresh connection.

        The response is delimited by ``Content-Length``, never by EOF:
        the server's pool workers are forked children that inherit open
        connection descriptors, so EOF can arrive arbitrarily late even
        though the full response has been written.
        """
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: repro-service\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1")
        with self._connect() as sock:
            sock.sendall(head + body)
            raw = bytearray()
            # Read the header block first, then exactly the body.
            while b"\r\n\r\n" not in raw:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw.extend(chunk)
            status, length, have = _parse_head(bytes(raw))
            while len(have) < length:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError(
                        f"truncated response body ({len(have)} of "
                        f"{length} bytes)"
                    )
                have += chunk
        return status, have[:length]

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Exchange with transport-level retry; returns (status, body)."""
        attempt = 0
        while True:
            attempt += 1
            try:
                status, payload = self._once(method, path, body)
            except (ConnectionError, socket.timeout, OSError, ValueError) as exc:
                if attempt > self.retries:
                    raise ServiceError(
                        f"service at {self.address} unreachable after "
                        f"{attempt} attempts: {type(exc).__name__}: {exc}"
                    ) from exc
                self._pause(attempt)
                continue
            if status in RETRYABLE_STATUSES and attempt <= self.retries:
                self._pause(attempt)
                continue
            return status, payload

    def _pause(self, attempt: int) -> None:
        self.transport_retries += 1
        _sleep(min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap))

    # -- API calls ------------------------------------------------------------

    def sweep(self, request: SweepRequest) -> SweepResponse:
        """Run one batch of cells; raises :class:`ServiceError` on 4xx/5xx."""
        status, body = self.request("POST", "/v1/sweep", encode_request(request))
        if status != 200:
            message, _ = decode_error(body)
            raise ServiceError(f"sweep failed (HTTP {status}): {message}")
        return decode_response(body)

    def healthz(self) -> dict:
        status, body = self.request("GET", "/healthz")
        if status != 200:
            raise ServiceError(f"healthz failed (HTTP {status})")
        return json.loads(body.decode("utf-8"))

    def metrics(self) -> str:
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"metrics failed (HTTP {status})")
        return body.decode("utf-8")

    def shutdown(self) -> None:
        """Ask the server to stop (best-effort, no retry storm)."""
        self.request("POST", "/v1/shutdown")


def _parse_address(address: str) -> tuple[int, object]:
    """``unix:<path>`` or ``[http://]host:port`` -> (family, connect target)."""
    if address.startswith("unix:"):
        return socket.AF_UNIX, address[len("unix:"):]
    if address.startswith("http://"):
        address = address[len("http://"):]
    host, _, port_text = address.rpartition(":")
    if not host:
        raise ServiceError(
            f"service address {address!r} must be host:port or unix:path"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(f"bad service port {port_text!r}") from None
    return socket.AF_INET, (host, port)


def _parse_head(raw: bytes) -> tuple[int, int, bytes]:
    """Split a response prefix into (status, content length, body so far)."""
    head, sep, rest = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ConnectionError("truncated response (no header terminator)")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ConnectionError(f"bad status line {lines[0]!r}")
    status = int(parts[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, length, rest


class RemoteRunner:
    """Runner-shaped facade over a :class:`ServiceClient`.

    Presents the sweep surface of
    :class:`~repro.core.runner.SimulationRunner` — same method names,
    same result shapes, same ``failures`` reporting — but every cell is
    computed (or cache-hit) server-side.  A planned experiment
    (:func:`~repro.experiments.base.planned`) sends all its cells as
    one request through :meth:`run_many`.  Experiments that need local
    workload access (:meth:`program` / :meth:`trace`) cannot run against
    a server and say so explicitly.
    """

    def __init__(
        self,
        client: ServiceClient,
        trace_length: int = DEFAULT_TRACE_LENGTH,
        seed: int = 1995,
        warmup: int | None = None,
        on_error: str = "raise",
        priority: int = 0,
        client_id: str = DEFAULT_CLIENT,
    ) -> None:
        if trace_length < 1:
            raise ExperimentError(f"trace_length must be >= 1: {trace_length}")
        if warmup is None:
            warmup = min(DEFAULT_WARMUP, trace_length // 4)
        if not 0 <= warmup < trace_length:
            raise ExperimentError(
                f"warmup {warmup} must lie in [0, trace_length={trace_length})"
            )
        self.client = client
        self.trace_length = trace_length
        self.seed = seed
        self.warmup = warmup
        self.on_error = on_error
        self.priority = priority
        self.client_id = client_id
        #: Structured failure report of every dead cell served so far,
        #: in request order (mirrors ``SimulationRunner.failures``).
        self.failures: list[SweepFailure] = []
        #: Aggregated per-request service stats (store hits etc.).
        self.stats: dict[str, int] = {}
        #: Plans whose request failed, so their cells went one call at a
        #: time (see :meth:`run_many`).
        self.plan_fallbacks = 0
        #: Planned cells -> (result, its failure or ``None``), served by
        #: :meth:`run_jobs` without a request until :meth:`drop_plan`.
        self._held: dict[tuple[str, SimConfig], tuple] = {}

    # -- the sweep surface ----------------------------------------------------

    def _sweep(self, jobs) -> SweepResponse:
        """One request for *jobs*; its stats join :attr:`stats`."""
        response = self.client.sweep(
            SweepRequest(
                cells=tuple(jobs),
                trace_length=self.trace_length,
                warmup=self.warmup,
                seed=self.seed,
                client=self.client_id,
                priority=self.priority,
                on_error=self.on_error,
            )
        )
        for key, value in response.stats.items():
            self.stats[key] = self.stats.get(key, 0) + value
        return response

    def run_jobs(
        self, jobs: list[tuple[str, SimConfig]]
    ) -> list[SimulationResult | MissingResult]:
        """Run ``(benchmark, config)`` cells server-side, in job order.

        When every cell is held from a plan, they are served with no
        request, and :attr:`failures` gains each held failure the first
        time its cell is served; otherwise it gains the request's
        failures.  Either way it accumulates across calls, so once the
        experiment returns it lists every dead cell exactly once.
        """
        if self._held and all(tuple(job) in self._held for job in jobs):
            results = []
            for job in map(tuple, jobs):
                result, failure = self._held[job]
                if failure is not None:
                    self.failures.append(failure)
                    self._held[job] = (result, None)
                results.append(result)
            return results
        if not jobs:
            return []
        response = self._sweep(jobs)
        self.failures.extend(response.failures)
        return list(response.results)

    def run_many(self, plan) -> None:
        """Send the distinct cells of *plan* as one request and hold
        each result (and its failure) for :meth:`run_jobs`.

        A request the service refuses (say a 429 that outlasts the
        client's retries, or dead cells under ``on_error="raise"``)
        holds nothing: it warns once per runner, counts
        :attr:`plan_fallbacks`, and the cells go one call at a time, as
        an unplanned run sends them.
        """
        self._held = {}
        cells = list(dict.fromkeys(tuple(job) for job in plan))
        if not cells:
            return
        try:
            response = self._sweep(cells)
        except ServiceError as exc:
            self.plan_fallbacks += 1
            if self.plan_fallbacks == 1:
                warnings.warn(
                    f"the planned request for {len(cells)} cells failed; "
                    f"they go one call at a time ({exc})",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return
        # The server lists failures in the order of their dead cells.
        failures = iter(response.failures)
        self._held = {
            cell: (
                result,
                next(failures) if isinstance(result, MissingResult) else None,
            )
            for cell, result in zip(cells, response.results)
        }

    def drop_plan(self) -> None:
        """Forget the held results (a planned experiment calls this when
        it returns)."""
        self._held = {}

    def run(self, name: str, config: SimConfig) -> SimulationResult:
        return self.run_jobs([(name, config)])[0]

    def run_policies(
        self,
        name: str,
        config: SimConfig,
        policies: tuple[FetchPolicy, ...] = ALL_POLICIES,
    ) -> dict[FetchPolicy, SimulationResult]:
        results = self.run_jobs(
            [(name, config.with_policy(policy)) for policy in policies]
        )
        return dict(zip(policies, results))

    def run_suite(
        self, names, config: SimConfig
    ) -> dict[str, SimulationResult]:
        names = list(names)
        results = self.run_jobs([(name, config) for name in names])
        return dict(zip(names, results))

    def run_matrix(
        self,
        names,
        config: SimConfig,
        policies: tuple[FetchPolicy, ...] = ALL_POLICIES,
    ) -> dict[str, dict[FetchPolicy, SimulationResult]]:
        names = list(names)
        results = self.run_jobs(
            [
                (name, config.with_policy(policy))
                for name in names
                for policy in policies
            ]
        )
        matrix: dict[str, dict[FetchPolicy, SimulationResult]] = {}
        index = 0
        for name in names:
            matrix[name] = {}
            for policy in policies:
                matrix[name][policy] = results[index]
                index += 1
        return matrix

    # -- unsupported local access ---------------------------------------------

    def program(self, name: str):
        raise ExperimentError(
            "this experiment needs local workload access "
            f"(program {name!r}); it cannot run against --server"
        )

    def trace(self, name: str):
        raise ExperimentError(
            "this experiment needs local trace access "
            f"(trace {name!r}); it cannot run against --server"
        )

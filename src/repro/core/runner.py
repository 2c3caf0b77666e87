"""High-level simulation runner with workload/trace caching.

Experiments sweep many configurations over the same benchmarks; building a
program and generating its trace dominates setup cost, so the runner memo-
izes both per ``(workload, n_instructions, seed)`` and replays the cached
trace through fresh engines.

The runner also carries the fault-tolerant sweep layer: per-cell
retry with bounded deterministic exponential backoff, a signal-based
watchdog (``job_timeout``), graceful degradation (``on_error="skip"``
turns failed cells into :class:`MissingResult` placeholders recorded in
:attr:`failures`), checkpoint/resume through a
:class:`~repro.core.store.ResultStore`, and deterministic fault
injection for chaos testing (see :mod:`repro.core.faults`).
Incidents publish ``sweep.*`` / ``checkpoint.*`` counters and
:class:`~repro.obs.events.SweepIncident` events through the observer.

Every finished result is memoised in process, keyed by every input that
changes it (:func:`~repro.core.store.cell_key`), so a sweep simulates
each distinct cell once: repeat requests are served the very same
result object (``sweep.result_hits``).

:meth:`SimulationRunner.run_many` simulates a planned batch of cells
side by side on every core before they are requested: forked workers
run the same attempt loop, and each outcome is held until :meth:`run`
asks for its cell, so results, counters and the registry match a serial
run (see ``docs/performance.md``).  :meth:`SimulationRunner.run_jobs`
is the batch call for callers that know their cells up front.
"""

from __future__ import annotations

import contextlib
import os
import time
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace

from repro.branch.stream import (
    PredictionStream,
    build_stream,
    replay_eligible,
    stream_digest,
)
from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.artifacts import ArtifactCache
from repro.core.engine import simulate
from repro.core.faults import FaultPlan, corrupt_entry, is_transient
from repro.core.lifeline import terminate_pool
from repro.core.results import MissingResult, SimulationResult, SweepFailure
from repro.core.store import ResultStore, cell_digest, cell_key
from repro.errors import ExperimentError, JobTimeoutError
from repro.obs.events import StreamBuild, SweepIncident
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.profile import PhaseProfiler
from repro.program.program import Program
from repro.trace.event import Trace
from repro.trace.generator import generate_trace

#: Counter name per incident kind (see ``docs/robustness.md``).
_INCIDENT_COUNTERS = {
    "retry": "sweep.retries",
    "timeout": "sweep.timeouts",
    "watchdog_inactive": "sweep.watchdog_inactive",
    "skip": "sweep.skipped_cells",
    "checkpoint_hit": "checkpoint.hits",
    "cache_store_failure": "artifacts.store_failures",
    "fault_injected": "faults.injected",
}

#: Default dynamic trace length per benchmark.  The paper traces full runs
#: (10^7..10^9 instructions); intensive metrics converge far earlier for
#: our synthetic footprints (see DESIGN.md §2).
DEFAULT_TRACE_LENGTH = 200_000

#: Default measurement warmup: simulated but not measured, so compulsory
#: misses and predictor training do not pollute steady-state metrics.
DEFAULT_WARMUP = 50_000


#: Relative engine time per trace record, by cell kind (measured on gcc
#: and doduc at 200k instructions): a real-cache event-loop cell, its
#: extra cost with next-line prefetch, and a replayed perfect-cache
#: cell.  Per-interval schedules cost ``ADAPTIVE_FACTOR`` times their
#: static cell.  Only the order of plan tasks uses them.
REAL_CACHE_WEIGHT = 30
PREFETCH_WEIGHT = 5
REPLAYED_WEIGHT = 1
ADAPTIVE_FACTOR = 4


@dataclass(frozen=True, slots=True)
class WorkloadRun:
    """A prepared (program, trace) pair ready to simulate."""

    program: Program
    trace: Trace


@dataclass(slots=True)
class CellOutcome:
    """One planned cell as a pool worker finished it (see ``run_many``).

    Held by the parent until :meth:`SimulationRunner.run` asks for the
    cell, which then publishes *metrics* and *profile* and either serves
    *result* or hands *error* to ``on_error``.
    """

    result: SimulationResult | None
    #: The attempt loop's final exception (``result`` is then ``None``).
    error: Exception | None
    attempts: int
    #: Registry delta (``MetricsRegistry.as_dict``); ``None`` unobserved.
    metrics: dict[str, object] | None
    #: Phase summary of the attempts; ``None`` without a profiler.
    profile: dict[str, dict[str, float]] | None
    #: The parent wrote the result to the checkpoint store.
    stored: bool = False


@dataclass(slots=True)
class _PlanTask:
    """One planned cell for a pool worker."""

    key: tuple
    name: str
    config: SimConfig


def _plan_workers() -> int:
    """CPUs this process may run on: the plan pool's worker ceiling.

    Platforms without an affinity API (and so without a safe ``fork``)
    report 1, which keeps every plan in process.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


#: In a plan pool worker: the runner whose plan it serves (see _adopt).
_forked_runner: SimulationRunner | None = None


def _adopt(runner: SimulationRunner, parent_pid: int) -> None:
    """Plan pool worker initializer: serve *runner*, die with the parent.

    The pool forks, so *runner* arrives unpickled, with the programs,
    traces and streams the parent prepared for the plan.
    """
    global _forked_runner
    from repro.core.lifeline import tie_to_parent

    tie_to_parent(parent_pid)
    _forked_runner = runner


def _simulate_task(name, config):
    """Pool worker: one cell's outcome."""
    return _forked_runner._isolated(name, config)


class SimulationRunner:
    """Caches programs/traces and fans configurations out over them."""

    def __init__(
        self,
        trace_length: int = DEFAULT_TRACE_LENGTH,
        seed: int = 1995,
        warmup: int | None = None,
        observer: Observer | None = None,
        cache_dir: str | None = None,
        retries: int = 2,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        job_timeout: float | None = None,
        on_error: str = "raise",
        checkpoint_dir: str | None = None,
        fault_plan: FaultPlan | None = None,
        engine: str = "auto",
    ) -> None:
        if trace_length < 1:
            raise ExperimentError(f"trace_length must be >= 1: {trace_length}")
        if warmup is None:
            warmup = min(DEFAULT_WARMUP, trace_length // 4)
        if not 0 <= warmup < trace_length:
            raise ExperimentError(
                f"warmup {warmup} must lie in [0, trace_length={trace_length})"
            )
        if retries < 0:
            raise ExperimentError(f"retries must be >= 0: {retries}")
        if backoff_base < 0 or backoff_cap < 0:
            raise ExperimentError("backoff must be >= 0")
        if job_timeout is not None and job_timeout <= 0:
            raise ExperimentError(f"job_timeout must be > 0: {job_timeout}")
        if on_error not in ("raise", "skip"):
            raise ExperimentError(
                f"on_error must be 'raise' or 'skip': {on_error!r}"
            )
        if engine not in ("auto", "event", "vector"):
            raise ExperimentError(
                f"engine must be 'auto', 'event' or 'vector': {engine!r}"
            )
        self.trace_length = trace_length
        self.seed = seed
        self.warmup = warmup
        #: Optional observability bundle; shared by every simulation this
        #: runner performs (metrics accumulate across runs).
        self.observer = observer
        #: Optional persistent artifact cache shared across processes
        #: (``None`` disables it; see ``repro.core.artifacts``).
        self.artifacts = ArtifactCache(cache_dir)
        #: Transient-failure retry budget per cell, with deterministic
        #: exponential backoff ``min(base * 2**(n-1), cap)`` seconds.
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Per-cell watchdog (seconds); enforced via ``SIGALRM`` where
        #: available (POSIX main thread), otherwise warned about once
        #: and counted per unguarded cell (``sweep.watchdog_inactive``).
        self.job_timeout = job_timeout
        self._watchdog_warned = False
        #: ``"raise"`` aborts on a failed cell; ``"skip"`` records it in
        #: :attr:`failures` and returns a :class:`MissingResult`.
        self.on_error = on_error
        #: Crash-resumable on-disk store of completed cells (no-op when
        #: ``checkpoint_dir`` is ``None``; see ``repro.core.store``).
        self.checkpoint = ResultStore(checkpoint_dir)
        #: Deterministic fault-injection plan (chaos testing only).
        self.fault_plan = fault_plan
        #: Engine backend override applied to every cell: ``"auto"``
        #: leaves ``config.engine_backend`` untouched (each cell decides
        #: through the ``build_engine`` seam), ``"event"`` / ``"vector"``
        #: force the corresponding backend (ineligible cells still fall
        #: back to the event loop; see ``repro.core.vector``).
        self.engine = engine
        #: Structured failure report (``on_error="skip"`` cells).
        self.failures: list[SweepFailure] = []
        #: Cell traffic: every :meth:`run` call is requested; a served
        #: cell came from the engine, the memo, or the checkpoint store
        #: (``checkpoint.hits``); failed cells count as requested only.
        self.cells_requested = 0
        self.cells_simulated = 0
        self.memo_hits = 0
        # In-memory memos.  The keys repeat the runner attributes each
        # artifact actually depends on, so mutating ``runner.seed`` or
        # ``runner.trace_length`` between runs can never replay a stale
        # program or trace (it used to: the old keys were the bare name).
        self._programs: dict[tuple[str, int], Program] = {}
        self._traces: dict[tuple[str, int, int], Trace] = {}
        self._streams: dict[tuple[str, int, int, str], PredictionStream] = {}
        self._results: dict[tuple, SimulationResult] = {}
        #: Pool outcomes of planned cells, waiting for their request.
        self._planned: dict[tuple, CellOutcome] = {}
        #: Replay-eligible planned cells the runner hands no stream (see
        #: run_many); serving the cell consumes its mark.
        self._unshared: set[tuple] = set()

    def _phase(self, name: str):
        """Profiling scope for *name* (no-op without an observer/profiler)."""
        if self.observer is not None and self.observer.profiler is not None:
            return self.observer.profiler.phase(name, observer=self.observer)
        return contextlib.nullcontext()

    # -- fault-tolerance plumbing -----------------------------------------------

    def _incident(
        self, kind: str, benchmark: str, detail: str = "", attempt: int = 0
    ) -> None:
        """Publish one sweep incident as a counter (+ event when traced)."""
        if self.observer is None:
            return
        self.observer.registry.inc(_INCIDENT_COUNTERS[kind])
        if self.observer.events_enabled:
            self.observer.sink.emit(
                SweepIncident(
                    t=0, benchmark=benchmark, kind=kind,
                    detail=detail, attempt=attempt,
                )
            )

    def _fire(self, phase: str, name: str) -> None:
        """Consult the fault plan at one phase boundary (no-op without one)."""
        if self.fault_plan is None:
            return
        spec = self.fault_plan.fire(phase, name)
        if spec is None:
            return
        self._incident("fault_injected", name, detail=f"{spec.phase}:{spec.kind}")
        if (
            spec.kind == "corrupt"
            and phase == "cache_load"
            and self.artifacts.enabled
        ):
            corrupt_entry(
                self.artifacts.entry_dir(name, self.trace_length, self.seed)
            )

    @contextlib.contextmanager
    def _watchdog(self, name: str) -> Iterator[None]:
        """Raise :class:`JobTimeoutError` if the body outlives ``job_timeout``.

        Signal-based (``SIGALRM``), so it works even while the pure-Python
        engine is busy.  Off the POSIX main thread it cannot arm: the
        runner warns once and counts each unguarded cell as a
        ``watchdog_inactive`` incident.  Any outer alarm (e.g. a
        test-harness deadline) is restored with its remaining time on
        exit.
        """
        if self.job_timeout is None:
            yield
            return
        import signal
        import threading

        if (
            not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()
        ):
            if not self._watchdog_warned:
                self._watchdog_warned = True
                warnings.warn(
                    f"job_timeout={self.job_timeout}s is not enforced: the "
                    "SIGALRM watchdog only runs on the POSIX main thread",
                    RuntimeWarning,
                    stacklevel=4,
                )
            self._incident("watchdog_inactive", name)
            yield
            return

        def _on_alarm(signum, frame):
            raise JobTimeoutError(
                f"benchmark {name!r} exceeded job_timeout="
                f"{self.job_timeout}s"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        started = time.monotonic()
        old_delay, _ = signal.setitimer(signal.ITIMER_REAL, self.job_timeout)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if old_delay:
                remaining = old_delay - (time.monotonic() - started)
                signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001))

    # -- workload preparation ---------------------------------------------------

    def program(self, name: str) -> Program:
        """The (cached) synthetic program for benchmark *name*."""
        key = (name, self.seed)
        if key not in self._programs:
            from repro.program.workloads import build_workload

            self._fire("build", name)
            with self._phase("build_program"):
                self._programs[key] = build_workload(name, seed=self.seed)
        return self._programs[key]

    def trace(self, name: str) -> Trace:
        """The (cached) dynamic trace for benchmark *name*.

        With an artifact cache configured, a persisted (program, trace)
        pair satisfies the request without building anything; a miss
        builds as before and persists the pair for the next process.
        """
        key = (name, self.trace_length, self.seed)
        if key not in self._traces:
            if self.artifacts.enabled:
                self._fire("cache_load", name)
                with self._phase("artifact_cache"):
                    pair = self.artifacts.load(name, self.trace_length, self.seed)
                if pair is not None:
                    self._programs[(name, self.seed)], self._traces[key] = pair
                    return self._traces[key]
            program = self.program(name)
            self._fire("generate", name)
            with self._phase("generate_trace"):
                self._traces[key] = generate_trace(
                    program, self.trace_length, seed=self.seed
                )
            if self.artifacts.enabled:
                self._fire("cache_store", name)
                before = self.artifacts.store_failures
                self.artifacts.store(
                    name, self.trace_length, self.seed, program, self._traces[key]
                )
                if self.artifacts.store_failures > before:
                    self._incident(
                        "cache_store_failure", name,
                        detail="artifact cache disabled for this run",
                    )
        return self._traces[key]

    def _effective_config(self, config: SimConfig) -> SimConfig:
        """*config* with the runner's engine-backend override applied."""
        if self.engine == "auto" or config.engine_backend == self.engine:
            return config
        if self.engine == "vector" and (
            config.policy_schedule != "static"
            or config.adaptive_interval is not None
        ):
            # SimConfig rejects vector + per-interval scheduling outright;
            # a sweep-wide --engine vector request leaves adaptive cells
            # on the event loop instead of invalidating their configs.
            return config
        return replace(config, engine_backend=self.engine)

    def prepared(self, name: str) -> WorkloadRun:
        """Program and trace for *name*, building them if needed."""
        # Trace first: an artifact-cache hit satisfies the program memo
        # too, so program() must not run (and rebuild) before it.
        trace = self.trace(name)
        return WorkloadRun(program=self.program(name), trace=trace)

    def _stream_key(self, name: str, config: SimConfig) -> tuple | None:
        """The memo key of the stream *config* would replay, or ``None``
        when the config is not replay-eligible (timing schedule with a
        real cache)."""
        if not replay_eligible(config):
            return None
        return (name, self.trace_length, self.seed, stream_digest(config))

    def _stream_for(self, name: str, config: SimConfig) -> PredictionStream | None:
        """The prediction stream for one replay-eligible cell, or ``None``.

        Resolution order: in-memory memo, artifact cache (counter
        ``stream.cache_hits``), live build (counter ``stream.builds``,
        :class:`~repro.obs.events.StreamBuild` event) — built streams are
        persisted so the next process loads instead of rebuilding.
        Returns ``None`` when :meth:`_stream_key` does.
        """
        key = self._stream_key(name, config)
        if key is None:
            return None
        digest = key[-1]
        stream = self._streams.get(key)
        if stream is not None:
            return stream
        source = "cache"
        if self.artifacts.enabled:
            with self._phase("stream_cache"):
                stream = self.artifacts.load_stream(
                    name, self.trace_length, self.seed, digest
                )
            if stream is not None and self.observer is not None:
                self.observer.registry.inc("stream.cache_hits")
        if stream is None:
            source = "build"
            prepared = self.prepared(name)
            with self._phase("build_stream"):
                stream = build_stream(prepared.program, prepared.trace, config)
            if self.observer is not None:
                self.observer.registry.inc("stream.builds")
            if self.artifacts.enabled:
                self.artifacts.store_stream(
                    name, self.trace_length, self.seed, stream
                )
        if self.observer is not None and self.observer.events_enabled:
            self.observer.sink.emit(
                StreamBuild(
                    t=0,
                    benchmark=name,
                    records=stream.n_records,
                    source=source,
                    digest=digest,
                )
            )
        self._streams[key] = stream
        return stream

    # -- simulation -------------------------------------------------------------

    def run(self, name: str, config: SimConfig) -> SimulationResult:
        """Simulate benchmark *name* under *config* (with warmup).

        The fault-tolerant cell executor.  Lookup order: the in-process
        result memo (``sweep.result_hits``; no fault fires, no phase
        opens, no engine metric publishes), then a pool outcome held by
        :meth:`run_many` (served as a simulated cell: its metrics and
        phases publish now, in request order), then the checkpoint store
        (checkpoint/resume), then simulation: the cell runs under the
        watchdog with up to ``retries`` transient re-attempts, and a
        final failure either raises (``on_error="raise"``) or degrades
        to a :class:`MissingResult` recorded in :attr:`failures`
        (``on_error="skip"``).  Only successful results are memoised.

        Faults fire at phase boundaries only (never mid-simulation), so
        a retried attempt re-publishes nothing twice and recovered runs
        stay bit-identical to undisturbed ones.
        """
        config = self._effective_config(config)
        self.cells_requested += 1
        key = cell_key(name, config, self.trace_length, self.warmup, self.seed)
        hit = self._results.get(key)
        if hit is not None:
            self.memo_hits += 1
            if self.observer is not None:
                self.observer.registry.inc("sweep.result_hits")
            return hit
        planned = self._planned.pop(key, None)
        if planned is not None:
            return self._absorb(name, config, key, planned)
        digest = None
        if self.checkpoint.enabled:
            digest = cell_digest(
                name, config, self.trace_length, self.warmup, self.seed
            )
            hit = self.checkpoint.load(
                digest, name, config, self.trace_length, self.warmup,
                self.seed,
            )
            if hit is not None:
                self._incident("checkpoint_hit", name)
                self._results[key] = hit
                return hit
        result, error, attempts = self._attempt(name, config)
        self._unshared.discard(key)
        if error is not None:
            return self._give_up(name, config, error, attempts)
        self.cells_simulated += 1
        self._results[key] = result
        if digest is not None:
            self.checkpoint.store(
                digest, name, config, self.trace_length, self.warmup,
                self.seed, result,
            )
            # A failed write disables the store: count only real stores.
            if self.checkpoint.enabled and self.observer is not None:
                self.observer.registry.inc("checkpoint.stores")
        return result

    def _attempt(
        self, name: str, config: SimConfig
    ) -> tuple[SimulationResult | None, Exception | None, int]:
        """The cell's attempt loop: ``(result, None, attempts)``, or
        ``(None, final exception, attempts)`` once retries are spent or
        the failure is deterministic.  A cell :meth:`run_many` marked
        unshared gets no stream from the runner: with a perfect cache it
        runs live, with a real cache it records its own (see
        :func:`~repro.core.engine.build_engine`)."""
        unshared = (
            cell_key(name, config, self.trace_length, self.warmup, self.seed)
            in self._unshared
        )
        attempts = 0
        while True:
            try:
                with self._watchdog(name):
                    prepared = self.prepared(name)
                    stream = None if unshared else self._stream_for(name, config)
                    if stream is not None and self.observer is not None:
                        self.observer.registry.inc("stream.replays")
                    self._fire("simulate", name)
                    with self._phase("simulate"):
                        result = simulate(
                            prepared.program,
                            prepared.trace,
                            config,
                            warmup=self.warmup,
                            observer=self.observer,
                            stream=stream,
                        )
                return result, None, attempts
            except Exception as exc:
                attempts += 1
                if is_transient(exc) and attempts <= self.retries:
                    if isinstance(exc, JobTimeoutError):
                        self._incident(
                            "timeout", name, detail=str(exc), attempt=attempts
                        )
                    delay = min(
                        self.backoff_base * (2 ** (attempts - 1)),
                        self.backoff_cap,
                    )
                    self._incident(
                        "retry", name,
                        detail=f"{type(exc).__name__}: {exc}",
                        attempt=attempts,
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                return None, exc, attempts

    def _give_up(
        self, name: str, config: SimConfig, exc: Exception, attempts: int
    ) -> SimulationResult:
        """Apply ``on_error`` to a cell whose attempts all failed."""
        if self.on_error != "skip":
            raise exc
        self.failures.append(
            SweepFailure(
                benchmark=name,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=attempts,
                transient=is_transient(exc),
            )
        )
        self._incident(
            "skip", name,
            detail=f"{type(exc).__name__}: {exc}",
            attempt=attempts,
        )
        return MissingResult(program=name, config=config)

    # -- planned cells on every core --------------------------------------------

    def run_jobs(
        self, jobs: Iterable[tuple[str, SimConfig]]
    ) -> list[SimulationResult]:
        """Simulate ``(benchmark, config)`` jobs; results in job order.

        The batch call this runner shares with the service's
        ``RemoteRunner`` (``Sweep.run`` uses it): *jobs* are planned
        through :meth:`run_many`, so they run on every core, then
        requested one by one through :meth:`run`, so results, cell
        traffic and the registry match a serial run.
        """
        jobs = list(jobs)
        self.run_many(jobs)
        return [self.run(name, config) for name, config in jobs]

    def run_many(self, plan: Iterable[tuple[str, SimConfig]]) -> None:
        """Simulate the ``(benchmark, config)`` cells of *plan* side by side.

        Nothing is returned and nothing is published yet: each finished
        cell is written to the checkpoint store at once and its outcome
        held until :meth:`run` asks for the cell, which serves it as a
        simulated cell in request order.  Cells already memoised, held or
        stored are skipped; each remaining cell is one task.  First, on
        every path, a replay-eligible cell gets no stream from the runner
        unless another planned cell shares its prediction stream or the
        runner holds it already: a perfect-cache cell then runs live,
        which costs less than recording a stream, and a real-cache cell
        records its own inside its attempt.  Once a pool is certain, the
        plan's programs, traces and shared streams are prepared here, so
        forked workers inherit them and each is built once, as in a
        serial run.  Tasks go longest first (a static estimate) to a pool
        of ``min(cpus, tasks)`` forked workers, each running the cell's
        attempt loop under a private observer; the pool is joined before
        returning.

        Everything stays in process (nothing is prepared or dispatched)
        on one CPU, with fewer than two tasks, with a fault plan (faults
        must fire in request order), and while the observer streams
        events (a plan's events would sit in memory until their cells
        are requested).  A cell whose preparation fails, or whose worker
        dies (``sweep.plan_fallbacks``), is left to :meth:`run`.
        """
        observer = self.observer
        if observer is not None:
            for name in (
                "sweep.plan_cells", "sweep.plan_errors", "sweep.plan_fallbacks",
                "sweep.plan_tasks",
            ):
                observer.registry.counter(name)
        cells: dict[tuple, tuple[str, SimConfig]] = {}
        for name, config in plan:
            config = self._effective_config(config)
            key = cell_key(
                name, config, self.trace_length, self.warmup, self.seed
            )
            if key in cells or key in self._results or key in self._planned:
                continue
            if self.checkpoint.enabled and self.checkpoint.entry_path(
                cell_digest(
                    name, config, self.trace_length, self.warmup, self.seed
                )
            ).is_file():
                continue
            cells[key] = (name, config)
        tasks = self._plan_tasks(cells)
        if self.fault_plan is not None or (
            observer is not None and observer.events_enabled
        ):
            return
        cpus = _plan_workers()
        if min(cpus, len(tasks)) < 2:
            return
        tasks = [task for task in tasks if self._preparable(task)]
        if min(cpus, len(tasks)) < 2:
            return
        # Longest first; the sort is stable, so ties keep plan order.
        tasks.sort(key=self._task_cost, reverse=True)
        self._dispatch(tasks, min(cpus, len(tasks)))

    def drop_plan(self) -> None:
        """Forget held outcomes no request asked for (a planned
        experiment calls this when it returns)."""
        self._planned.clear()
        self._unshared.clear()

    def _plan_tasks(
        self, cells: dict[tuple, tuple[str, SimConfig]]
    ) -> list[_PlanTask]:
        """One pool task per planned cell, in plan order; a
        replay-eligible cell whose stream no other planned cell shares,
        and which the runner does not hold, is marked unshared."""
        streams = {
            key: self._stream_key(name, config)
            for key, (name, config) in cells.items()
        }
        users = Counter(streams.values())
        for key, stream_key in streams.items():
            if stream_key is not None and users[stream_key] == 1 and (
                stream_key not in self._streams
            ):
                self._unshared.add(key)
        return [
            _PlanTask(key, name, config) for key, (name, config) in cells.items()
        ]

    def _preparable(self, task: _PlanTask) -> bool:
        """Prepare the task's workload and the stream it replays; a
        failure leaves the cell to run()."""
        try:
            self.prepared(task.name)
            if task.key not in self._unshared:
                self._stream_for(task.name, task.config)
        except Exception:
            return False
        return True

    def _task_cost(self, task: _PlanTask) -> int:
        """Static engine-time estimate of one task (see the weights)."""
        config = task.config
        weight = (
            REPLAYED_WEIGHT
            if config.perfect_cache and task.key not in self._unshared
            else REAL_CACHE_WEIGHT
        )
        if config.prefetch:
            weight += PREFETCH_WEIGHT
        if config.adaptive_interval is not None:
            weight *= ADAPTIVE_FACTOR
        return weight * self.trace(task.name).n_blocks

    def _dispatch(self, tasks: list[_PlanTask], workers: int) -> None:
        """Run *tasks* on a fork pool of *workers*; hold every outcome.

        Fork, not spawn: workers inherit the prepared plan instead of
        rebuilding it.  The pool forks from the calling thread, so call
        this from a process whose other threads hold no locks.
        """
        import multiprocessing
        from concurrent.futures import as_completed
        from concurrent.futures.process import ProcessPoolExecutor

        self._count("sweep.plan_tasks", len(tasks))
        self._count("sweep.plan_cells", len(tasks))
        with self._phase("simulate_plan"):
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt,
                initargs=(self, os.getpid()),
            )
            try:
                futures = {
                    pool.submit(_simulate_task, task.name, task.config): task
                    for task in tasks
                }
                for future in as_completed(futures):
                    task = futures[future]
                    try:
                        outcome = future.result()
                    except Exception:
                        # A dead worker or an unpicklable outcome: the
                        # cell runs in process when it is requested.
                        self._count("sweep.plan_fallbacks", 1)
                        continue
                    self._hold(task, outcome)
            except BaseException:
                # Interrupted: do not wait for the running tasks.
                terminate_pool(pool)
                raise
            finally:
                pool.shutdown(wait=True, cancel_futures=True)

    def _hold(self, task: _PlanTask, outcome: CellOutcome) -> None:
        """Keep a finished task's outcome for its request."""
        self._unshared.discard(task.key)
        if outcome.result is not None and self.checkpoint.enabled:
            self.checkpoint.store(
                cell_digest(
                    task.name, task.config, self.trace_length, self.warmup,
                    self.seed,
                ),
                task.name, task.config, self.trace_length, self.warmup,
                self.seed, outcome.result,
            )
            outcome.stored = self.checkpoint.enabled
        self._planned[task.key] = outcome

    def _isolated(self, name: str, config: SimConfig) -> CellOutcome:
        """Pool worker: one cell's attempt loop under a private observer."""
        shared = private = self.observer
        if shared is not None:
            private = Observer(
                profiler=PhaseProfiler() if shared.profiler is not None
                else None
            )
        self.observer = private
        try:
            result, error, attempts = self._attempt(name, config)
        finally:
            self.observer = shared
        return CellOutcome(
            result=result,
            error=error,
            attempts=attempts,
            metrics=None if private is None else private.registry.as_dict(),
            profile=(
                None if private is None or private.profiler is None
                else private.profiler.summary()
            ),
        )

    def _absorb(
        self, name: str, config: SimConfig, key: tuple, outcome: CellOutcome
    ) -> SimulationResult:
        """Serve a held pool outcome at its request, as run() would have."""
        observer = self.observer
        if observer is not None:
            if outcome.metrics:
                observer.registry.merge(
                    MetricsRegistry.from_dict(outcome.metrics)
                )
            if outcome.profile and observer.profiler is not None:
                observer.profiler.merge_summary(
                    {f"pool.{phase}": stat
                     for phase, stat in outcome.profile.items()}
                )
        if outcome.error is not None:
            return self._give_up(name, config, outcome.error, outcome.attempts)
        self.cells_simulated += 1
        self._results[key] = outcome.result
        if outcome.stored and observer is not None:
            observer.registry.inc("checkpoint.stores")
        return outcome.result

    def _count(self, name: str, n: int) -> None:
        if self.observer is not None:
            self.observer.registry.inc(name, n)

    def run_policies(
        self,
        name: str,
        config: SimConfig,
        policies: Sequence[FetchPolicy] = ALL_POLICIES,
    ) -> dict[FetchPolicy, SimulationResult]:
        """Simulate *name* under each policy (same base config)."""
        return {
            policy: self.run(name, config.with_policy(policy))
            for policy in policies
        }

    def run_suite(
        self,
        names: Iterable[str],
        config: SimConfig,
    ) -> dict[str, SimulationResult]:
        """Simulate each benchmark in *names* under *config*."""
        return {name: self.run(name, config) for name in names}

    def run_matrix(
        self,
        names: Iterable[str],
        config: SimConfig,
        policies: Sequence[FetchPolicy] = ALL_POLICIES,
    ) -> dict[str, dict[FetchPolicy, SimulationResult]]:
        """The full benchmark x policy matrix for one base config."""
        return {name: self.run_policies(name, config, policies) for name in names}

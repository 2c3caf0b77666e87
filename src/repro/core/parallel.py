"""Multi-process simulation sweeps with fault-tolerant execution.

Experiment sweeps are embarrassingly parallel across benchmarks (each
(program, trace) pair is independent), and the pure-Python engine is
CPU-bound, so a process pool gives near-linear speedups for the big
tables.  Jobs are grouped by benchmark so each worker builds a workload
and generates its trace once, then replays it through all of that
benchmark's configurations — the same amortisation the in-process
:class:`~repro.core.runner.SimulationRunner` gets from its caches.

Long sweeps must survive partial failure.  The runner therefore layers
fault tolerance over the pool:

* **Retry with bounded deterministic exponential backoff** — *transient*
  failures (``BrokenProcessPool``, OS-level worker death, watchdog
  timeouts, injected transient faults) requeue the failed batch up to
  ``retries`` times, sleeping ``min(backoff_base * 2**(attempt-1),
  backoff_cap)`` between attempts.  Library errors (:class:`ReproError`)
  and unknown exceptions are *deterministic* — retrying cannot help, so
  they fail fast (or are skipped, below).
* **Watchdog timeouts** — with ``job_timeout`` set, a batch still
  running when the deadline passes is killed (the whole pool is torn
  down, since a pool cannot kill one worker) and requeued against its
  retry budget; completed batches from the same round are kept.
* **Pool rebuild** — a broken pool is discarded and rebuilt; only
  unfinished batches are resubmitted.
* **Graceful degradation** — with ``on_error="skip"``, a batch that
  exhausts its budget (or fails deterministically) is recorded in
  :attr:`failures` as a structured :class:`SweepFailure` and its cells
  become :class:`MissingResult` placeholders instead of aborting the
  sweep.
* **Checkpoint/resume** — with ``checkpoint_dir`` set, every completed
  ``(benchmark, config)`` cell is stored; a restarted sweep reuses
  stored cells bit-identically (see :mod:`repro.core.store`).

Like the serial runner, each runner memoises finished results in
process: a cell already served (by an earlier ``run_jobs`` call, or
earlier in the same job list) is answered from the memo before any
batch is formed (``sweep.result_hits``), so every distinct cell is
simulated once.

Retries, timeouts, skips, pool rebuilds, and checkpoint activity are
published as ``sweep.*`` / ``checkpoint.*`` counters in :attr:`metrics`.

Determinism is preserved: with no faults injected, a parallel sweep
returns bit-identical results to the serial runner for the same
(trace_length, seed, warmup), and — with ``collect_metrics=True`` — a
metrics registry identical to a serial observed sweep (counter merge is
commutative, so retries and completion order cannot perturb it).  With
faults injected, a *recovered* sweep is still bit-identical: faults fire
at phase boundaries and failed attempts publish nothing, so only the new
``sweep.*`` counters differ.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, deque
from collections.abc import Iterable, Sequence
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field, replace

from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.engine import simulate
from repro.core.faults import is_transient
from repro.core.lifeline import tie_to_parent
from repro.core.results import MissingResult, SimulationResult, SweepFailure
from repro.core.runner import DEFAULT_TRACE_LENGTH, DEFAULT_WARMUP
from repro.core.store import ResultStore, cell_digest, cell_key
from repro.errors import ExperimentError, JobTimeoutError
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.profile import PhaseProfiler

#: Injectable sleep (tests stub this out to keep backoff assertions fast).
_sleep = time.sleep

#: Worker payload: (results, metrics-registry dict or None, profile
#: summary or None).  Registries cross the process boundary as plain
#: dicts (via ``MetricsRegistry.as_dict``) to keep pickling trivial.
_WorkerReturn = tuple[
    list[SimulationResult],
    dict[str, object] | None,
    dict[str, dict[str, float]] | None,
]


#: In a pool worker: the last workload it prepared, as ``((name,
#: trace_length, seed), program, trace)``, so consecutive cells of one
#: benchmark skip the load and reuse its memoized lowering and wrong-path
#: segments.  One workload at most: workers are the peak-RSS processes.
_held_workload: tuple | None = None

#: Set by :func:`_pool_worker`: only pool workers hold a workload, never
#: the calling process (``ParallelRunner._run_in_process``).
_hold_workloads = False


def _pool_worker(parent_pid: int | None = None) -> None:
    """Pool initializer: hold the last workload between cells, and die
    with *parent_pid* when one is given."""
    global _hold_workloads
    _hold_workloads = True
    if parent_pid is not None:
        tie_to_parent(parent_pid)


def _run_benchmark_jobs(args) -> _WorkerReturn:
    """Worker: one benchmark, many configurations (runs in a subprocess).

    *args* is ``(name, configs, trace_length, warmup, seed, collect,
    cache_dir, fault_plan)``; the trailing fault plan may be ``None``
    (production) or a :class:`~repro.core.faults.FaultPlan` (chaos
    testing), which is consulted at every phase boundary.

    A perfect-cache config replays a prediction stream only when another
    config of the batch shares it or the artifact cache holds it, as
    :meth:`SimulationRunner.run_many` decides for a plan; otherwise it
    runs live, which costs less than a recording.  A real-cache
    architectural config always replays, so the worker records its
    stream when no cache holds it: the same recording the engine would
    make, but persisted for the next batch or service request.  Streams
    cross the process boundary as *cache keys*, never as pickled arrays:
    with a cache configured, the worker memory-maps the stream's
    ``.npy`` files from the shared artifact cache (zero-copy transport)
    and stores a stream it builds.

    A pool worker holds the workload it prepared last (see
    :data:`_held_workload`); a call with a fault plan neither reads nor
    fills that memo, so every phase it names still fires.
    """
    global _held_workload
    (
        name, configs, trace_length, warmup, seed, collect, cache_dir, plan,
    ) = args
    from repro.branch.stream import build_stream, replay_eligible, stream_digest
    from repro.core.artifacts import ArtifactCache

    observer = Observer(profiler=PhaseProfiler()) if collect else None
    profiler = observer.profiler if observer is not None else PhaseProfiler()
    artifacts = ArtifactCache(cache_dir)
    key = (name, trace_length, seed)
    hold = _hold_workloads and plan is None
    if hold and _held_workload is not None and _held_workload[0] == key:
        _, program, trace = _held_workload
    else:
        if hold:
            # Drop the held workload before loading the next one.
            _held_workload = None
        program, trace = _prepare(
            name, trace_length, seed, artifacts, plan, profiler
        )
        if hold:
            _held_workload = (key, program, trace)
    # Prediction streams, memoized per branch-config digest: every
    # replay-eligible configuration in this batch that shares a digest
    # shares one stream (mmapped from the cache when present, built and
    # persisted otherwise, unless its only user is a perfect-cache cell)
    # — the counters mirror the serial runner's.
    digests = [
        stream_digest(config) if replay_eligible(config) else None
        for config in configs
    ]
    users = Counter(digests)
    streams: dict[str, object] = {}

    def _stream_for(config, digest):
        if digest is None:
            return None
        if digest in streams:
            return streams[digest]
        stream = None
        if artifacts.enabled:
            with profiler.phase("stream_cache"):
                stream = artifacts.load_stream(
                    name, trace_length, seed, digest, mmap=True
                )
            if stream is not None and observer is not None:
                observer.registry.inc("stream.cache_hits")
        if stream is None:
            if users[digest] < 2 and config.perfect_cache:
                return None
            with profiler.phase("build_stream"):
                stream = build_stream(program, trace, config)
            if observer is not None:
                observer.registry.inc("stream.builds")
            if artifacts.enabled:
                artifacts.store_stream(name, trace_length, seed, stream)
        streams[digest] = stream
        return stream

    if plan is not None:
        plan.fire("simulate", name)
    results = []
    for config, digest in zip(configs, digests):
        stream = _stream_for(config, digest)
        if stream is not None and observer is not None:
            observer.registry.inc("stream.replays")
        with profiler.phase("simulate"):
            results.append(
                simulate(
                    program, trace, config, warmup=warmup,
                    observer=observer, stream=stream,
                )
            )
    if observer is not None:
        if plan is not None and plan.fired_soft:
            observer.registry.inc("faults.injected", plan.fired_soft)
        if artifacts.store_failures:
            observer.registry.inc(
                "artifacts.store_failures", artifacts.store_failures
            )
        return results, observer.registry.as_dict(), profiler.summary()
    return results, None, None


def _prepare(name, trace_length, seed, artifacts, plan, profiler):
    """Worker: the ``(program, trace)`` pair for one benchmark.

    Mirrors ``SimulationRunner.prepared`` exactly: the runner seed
    perturbs both the structure and the trace, so serial and parallel
    sweeps agree; the shared on-disk artifact cache (atomic writes) lets
    every worker of every sweep skip the build/generate phases after
    the first process.  *plan* fires at every phase boundary.
    """
    from repro.core.faults import corrupt_entry
    from repro.program.workloads import build_workload
    from repro.trace.generator import generate_trace

    pair = None
    if artifacts.enabled:
        if plan is not None:
            spec = plan.fire("cache_load", name)
            if spec is not None and spec.kind == "corrupt":
                corrupt_entry(artifacts.entry_dir(name, trace_length, seed))
        with profiler.phase("artifact_cache"):
            pair = artifacts.load(name, trace_length, seed)
    if pair is not None:
        return pair
    if plan is not None:
        plan.fire("build", name)
    with profiler.phase("build_program"):
        program = build_workload(name, seed=seed)
    if plan is not None:
        plan.fire("generate", name)
    with profiler.phase("generate_trace"):
        trace = generate_trace(program, trace_length, seed=seed)
    if artifacts.enabled:
        if plan is not None:
            plan.fire("cache_store", name)
        artifacts.store(name, trace_length, seed, program, trace)
    return program, trace


@dataclass
class _Batch:
    """One benchmark's unfinished work and its retry bookkeeping."""

    name: str
    entries: list[tuple[int, SimConfig]]
    attempts: int = 0
    next_delay: float = 0.0

    def payload(self, runner: ParallelRunner):
        return (
            self.name,
            tuple(config for _, config in self.entries),
            runner.trace_length,
            runner.warmup,
            runner.seed,
            runner.collect_metrics,
            runner.cache_dir,
            runner.fault_plan,
        )


class ParallelRunner:
    """Process-pool counterpart of :class:`SimulationRunner`.

    Presents the same sweep API; results are identical, only wall-clock
    differs.  Use for full-suite sweeps (Table 5-scale work); for single
    runs the in-process runner is cheaper.

    With ``collect_metrics=True`` every worker runs under its own
    :class:`Observer` (null event sink — events do not cross processes)
    and the merged counters land in :attr:`metrics`, per-phase wall-clock
    in :attr:`profile`.

    Fault tolerance is configured per-runner: ``retries`` transient
    re-attempts per batch with deterministic exponential backoff,
    ``job_timeout`` seconds of watchdog per pooled round,
    ``on_error="skip"`` to degrade failed cells to
    :class:`MissingResult` (recorded in :attr:`failures`), and
    ``checkpoint_dir`` for a crash-resumable result store.  ``fault_plan``
    injects deterministic failures for chaos testing (see
    :mod:`repro.core.faults`).
    """

    def __init__(
        self,
        trace_length: int = DEFAULT_TRACE_LENGTH,
        seed: int = 1995,
        warmup: int | None = None,
        max_workers: int | None = None,
        collect_metrics: bool = False,
        cache_dir: str | None = None,
        retries: int = 2,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        job_timeout: float | None = None,
        on_error: str = "raise",
        checkpoint_dir: str | None = None,
        fault_plan=None,
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
        if max_workers is not None and max_workers < 1:
            raise ExperimentError(f"max_workers must be >= 1: {max_workers}")
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
        self.max_workers = max_workers
        self.collect_metrics = collect_metrics
        #: Shared persistent artifact cache directory handed to every
        #: worker (``None`` disables caching).
        self.cache_dir = cache_dir
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.job_timeout = job_timeout
        self.on_error = on_error
        #: On-disk store of completed cells (no-op without a directory).
        self.checkpoint = ResultStore(checkpoint_dir)
        self.fault_plan = fault_plan
        #: Engine backend override applied to every job before it is
        #: dispatched (``"auto"`` leaves configs untouched; see
        #: ``SimulationRunner``): workers then route each cell through
        #: the ``build_engine`` seam as usual.
        self.engine = engine
        #: Merged worker metrics from the most recent ``run_jobs`` (always
        #: a registry; empty unless ``collect_metrics`` or the sweep
        #: needed fault-tolerance machinery, whose ``sweep.*`` counters
        #: always publish).
        self.metrics = MetricsRegistry()
        #: Merged worker phase profile from the most recent ``run_jobs``.
        self.profile = PhaseProfiler()
        #: Structured failure report from the most recent ``run_jobs``
        #: (non-empty only under ``on_error="skip"``).
        self.failures: list[SweepFailure] = []
        #: Cell traffic across every ``run_jobs`` call (see
        #: ``SimulationRunner``): requested = simulated + memo hits +
        #: checkpoint hits (``checkpoint.hits``) + failed cells.
        self.cells_requested = 0
        self.cells_simulated = 0
        self.memo_hits = 0
        self._results: dict[tuple, SimulationResult] = {}

    def _cell_key(self, name: str, config: SimConfig) -> tuple:
        return cell_key(name, config, self.trace_length, self.warmup, self.seed)

    def _cell_digest(self, name: str, config: SimConfig) -> str:
        return cell_digest(
            name, config, self.trace_length, self.warmup, self.seed
        )

    def _effective_config(self, config: SimConfig) -> SimConfig:
        """*config* with the runner's engine-backend override applied."""
        if self.engine == "auto" or config.engine_backend == self.engine:
            return config
        if self.engine == "vector" and (
            config.policy_schedule != "static"
            or config.adaptive_interval is not None
        ):
            # Mirrors SimulationRunner._effective_config: vector cannot
            # honour per-interval schedules, so adaptive cells keep their
            # own backend instead of building an invalid SimConfig.
            return config
        return replace(config, engine_backend=self.engine)

    # -- fault-tolerant execution -------------------------------------------

    def run_jobs(
        self, jobs: Iterable[tuple[str, SimConfig]]
    ) -> list[SimulationResult]:
        """Run ``(benchmark, config)`` jobs; results in job order.

        A worker failure is retried (transient causes) up to ``retries``
        times, then re-raised as :class:`ExperimentError` naming the
        benchmark whose jobs crashed (the original exception is chained)
        — or, under ``on_error="skip"``, recorded in :attr:`failures`
        with the affected cells returned as :class:`MissingResult`.

        Lookup order per job mirrors ``SimulationRunner.run``: the memo,
        then the checkpoint store, then a worker batch.  A cell repeated
        within *jobs* is simulated once and its result scattered to
        every position (a failed cell's duplicates share its
        :class:`MissingResult`).
        """
        jobs = list(jobs)
        self.metrics = MetricsRegistry()
        self.profile = PhaseProfiler()
        self.failures = []
        if not jobs:
            return []
        results: list[SimulationResult | None] = [None] * len(jobs)
        # Serve memoised and stored cells first, then group the remaining
        # distinct cells by benchmark, remembering original positions.
        grouped: dict[str, _Batch] = {}
        first_position: dict[tuple, int] = {}
        repeats: list[tuple[int, int]] = []
        for position, (name, config) in enumerate(jobs):
            config = self._effective_config(config)
            self.cells_requested += 1
            key = self._cell_key(name, config)
            hit = self._results.get(key)
            if hit is not None:
                results[position] = hit
                self._memo_hit()
                continue
            if key in first_position:
                repeats.append((position, first_position[key]))
                continue
            first_position[key] = position
            if self.checkpoint.enabled:
                hit = self.checkpoint.load(
                    self._cell_digest(name, config),
                    name, config, self.trace_length, self.warmup, self.seed,
                )
                if hit is not None:
                    results[position] = self._results[key] = hit
                    self.metrics.inc("checkpoint.hits")
                    continue
            batch = grouped.get(name)
            if batch is None:
                batch = grouped[name] = _Batch(name=name, entries=[])
            batch.entries.append((position, config))
        batches = list(grouped.values())
        if batches:
            if self.max_workers == 1 or len(batches) == 1:
                self._run_in_process(batches, results)
            else:
                self._run_pooled(batches, results)
        for position, first in repeats:
            results[position] = results[first]
            if not isinstance(results[first], MissingResult):
                self._memo_hit()
        missing = [
            i for i, r in enumerate(results) if r is None
        ]
        if missing:  # pragma: no cover - defensive
            raise ExperimentError(f"jobs {missing} produced no result")
        return results  # type: ignore[return-value]

    def _memo_hit(self) -> None:
        self.memo_hits += 1
        if self.collect_metrics:
            self.metrics.inc("sweep.result_hits")

    def _run_in_process(
        self,
        batches: Sequence[_Batch],
        results: list,
    ) -> None:
        """Single-process path (``max_workers=1`` or one batch).

        Same retry/skip semantics as the pooled path, minus the watchdog
        (an in-process batch cannot be killed from outside; use the pool
        or the serial runner's signal-based watchdog for that).
        """
        queue: deque[_Batch] = deque(batches)
        while queue:
            batch = queue.popleft()
            self._pause_before_retry(batch)
            try:
                ret = _run_benchmark_jobs(batch.payload(self))
            except Exception as exc:
                self._register_failure(batch, exc, queue, results)
                continue
            self._complete_batch(batch, ret, results)

    def _run_pooled(
        self,
        batches: Sequence[_Batch],
        results: list,
    ) -> None:
        """Pool path: submit rounds, watchdog each round, rebuild on damage."""
        queue: deque[_Batch] = deque(batches)
        pool = self._new_pool()
        try:
            while queue:
                round_batches = list(queue)
                queue.clear()
                delay = max(b.next_delay for b in round_batches)
                if delay > 0:
                    _sleep(delay)
                for batch in round_batches:
                    batch.next_delay = 0.0
                futures = [
                    (batch, pool.submit(_run_benchmark_jobs, batch.payload(self)))
                    for batch in round_batches
                ]
                done, _ = wait(
                    [future for _, future in futures],
                    timeout=self.job_timeout,
                    return_when=FIRST_EXCEPTION
                    if self.on_error == "raise" and self.retries == 0
                    else "ALL_COMPLETED",
                )
                # Process finished batches first: a fail-fast raise must
                # happen before any still-running future could be
                # mislabelled as hung below.
                rebuild = False
                for batch, future in futures:
                    if future not in done:
                        continue
                    try:
                        ret = future.result()
                    except Exception as exc:
                        rebuild = rebuild or isinstance(exc, BrokenExecutor)
                        self._register_failure(batch, exc, queue, results)
                        continue
                    self._complete_batch(batch, ret, results)
                hung: list[_Batch] = []
                for batch, future in futures:
                    if future in done:
                        continue
                    if future.cancel():
                        # Never started (queued behind a hung worker):
                        # requeue at no cost to the batch's retry budget.
                        queue.append(batch)
                    else:
                        hung.append(batch)
                if hung:
                    self.metrics.inc("sweep.timeouts", len(hung))
                    rebuild = True
                    for batch in hung:
                        timeout_exc = JobTimeoutError(
                            f"batch for benchmark {batch.name!r} exceeded "
                            f"job_timeout={self.job_timeout}s and was killed"
                        )
                        self._register_failure(
                            batch, timeout_exc, queue, results
                        )
                if rebuild:
                    # A broken or watchdog-killed pool can strand workers;
                    # tear it down hard and start fresh for the requeue.
                    self._terminate_pool(pool)
                    if queue:
                        pool = self._new_pool()
                        self.metrics.inc("sweep.pool_rebuilds")
        except BaseException:
            # Fail-fast exit (or interrupt): cancel outstanding work so a
            # failed sweep does not keep burning cores behind the raise.
            self._terminate_pool(pool)
            raise
        else:
            self._terminate_pool(pool)

    # -- shared bookkeeping --------------------------------------------------

    def _pause_before_retry(self, batch: _Batch) -> None:
        if batch.next_delay > 0:
            _sleep(batch.next_delay)
            batch.next_delay = 0.0

    def _register_failure(
        self,
        batch: _Batch,
        exc: Exception,
        queue: deque,
        results: list,
    ) -> None:
        """Retry, skip, or raise for one failed batch attempt."""
        batch.attempts += 1
        transient = is_transient(exc)
        if transient and batch.attempts <= self.retries:
            batch.next_delay = min(
                self.backoff_base * (2 ** (batch.attempts - 1)),
                self.backoff_cap,
            )
            self.metrics.inc("sweep.retries")
            queue.append(batch)
            return
        if self.on_error == "skip":
            self.failures.append(
                SweepFailure(
                    benchmark=batch.name,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    attempts=batch.attempts,
                    transient=transient,
                    cells=len(batch.entries),
                )
            )
            self.metrics.inc("sweep.skipped_cells", len(batch.entries))
            for position, config in batch.entries:
                results[position] = MissingResult(
                    program=batch.name, config=config
                )
            return
        if isinstance(exc, ExperimentError):
            raise exc
        raise self._worker_error(batch.name, exc) from exc

    def _complete_batch(
        self,
        batch: _Batch,
        ret: _WorkerReturn,
        results: list,
    ) -> None:
        """Scatter one finished batch into the result list, the memo and
        the checkpoint store."""
        batch_results, registry_dict, profile_summary = ret
        # strict=: a lost or duplicated worker result must fail loudly
        # here, not surface later as a None result or dropped configs.
        if len(batch_results) != len(batch.entries):
            raise ExperimentError(
                f"worker for benchmark {batch.name!r} returned "
                f"{len(batch_results)} results for {len(batch.entries)} "
                f"configurations"
            )
        for (position, config), result in zip(
            batch.entries, batch_results, strict=True
        ):
            results[position] = result
            self._results[self._cell_key(batch.name, config)] = result
            if self.checkpoint.enabled:
                self.checkpoint.store(
                    self._cell_digest(batch.name, config),
                    batch.name, config, self.trace_length, self.warmup,
                    self.seed, result,
                )
                if self.checkpoint.enabled:  # a failed write disables it
                    self.metrics.inc("checkpoint.stores")
        self.cells_simulated += len(batch.entries)
        if registry_dict is not None:
            self.metrics.merge(MetricsRegistry.from_dict(registry_dict))
        if profile_summary is not None:
            self.profile.merge_summary(profile_summary)

    def _new_pool(self) -> ProcessPoolExecutor:
        # Workers die with this process, even when it is SIGKILLed.
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_pool_worker,
            initargs=(os.getpid(),),
        )

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Shut a pool down hard: cancel queued work, kill live workers."""
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            with contextlib.suppress(Exception):
                proc.terminate()
        for proc in list(processes.values()):
            with contextlib.suppress(Exception):
                proc.join(timeout=5)

    @staticmethod
    def _worker_error(name: str, exc: Exception) -> ExperimentError:
        """Wrap a worker crash, preserving which benchmark it belongs to."""
        error = ExperimentError(
            f"parallel worker failed for benchmark {name!r}: "
            f"{type(exc).__name__}: {exc}"
        )
        error.benchmark = name
        return error

    def run_matrix(
        self,
        names: Sequence[str],
        config: SimConfig,
        policies: Sequence[FetchPolicy] = ALL_POLICIES,
    ) -> dict[str, dict[FetchPolicy, SimulationResult]]:
        """Parallel benchmark x policy matrix (same shape as the serial
        runner's)."""
        jobs = [
            (name, config.with_policy(policy))
            for name in names
            for policy in policies
        ]
        results = self.run_jobs(jobs)
        matrix: dict[str, dict[FetchPolicy, SimulationResult]] = {}
        index = 0
        for name in names:
            matrix[name] = {}
            for policy in policies:
                matrix[name][policy] = results[index]
                index += 1
        return matrix

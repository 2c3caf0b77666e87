"""The speculative front-end fetch engine.

This is the paper's simulator: a cycle-approximate model of a 4-wide fetch
unit running a correct-path trace through a blocking I-cache, with branch
redirect windows during which the machine fetches down wrong paths, and
with one of the five fetch policies deciding what happens to I-cache
misses encountered there.

Time is measured in *issue slots* (1 cycle = ``issue_width`` slots).  Each
correct-path instruction consumes one slot; every stall charges its slots
to exactly one ISPI component (see :mod:`repro.core.results`).  The paper's
assumptions are kept: perfect pipelining below fetch, no data-cache
interference, no alignment losses.

The timeline of one control transfer fetched at slot ``t_br``:

====================  =====================================================
event                 slot
====================  =====================================================
decode                ``t_br + decode_latency``   (misfetch redirect point)
resolution            ``t_br + resolve_latency``  (mispredict redirect)
wrong-path window     ``[t_br + 1 + delay, t_br + 1 + penalty)``
correct-path resumes  ``t_br + 1 + penalty`` (later if a wrong-path fill
                      blocks past the window — Optimistic's wrong_icache)
====================  =====================================================
"""

from __future__ import annotations

import copy
from collections import Counter, deque

from repro.branch.unit import BranchUnit, FetchOutcome
from repro.branch.btb import BranchTargetBuffer
from repro.branch.history import GlobalHistory
from repro.branch.pht import make_pht
from repro.branch.ras import ReturnAddressStack
from repro.cache.classify import MissClassifier
from repro.cache.icache import InstructionCache, LineOrigin
from repro.cache.l2 import SecondLevelCache
from repro.config import FetchPolicy, SimConfig
from repro.core.lowering import (
    BlockPlan,
    fetch_program,
    span_counts,
    warmup_split,
)
from repro.core.results import (
    COMPONENTS,
    EngineCounters,
    IntervalStats,
    PenaltyAccumulator,
    SimulationResult,
)
from repro.core.schedule import build_schedule, interval_spans
from repro.core.wrongpath import segment_memo, walk_segments
from repro.errors import SimulationError
from repro.isa import InstrKind
from repro.memory.bus import MemoryBus
from repro.memory.pending import FillOrigin, PendingFillStation
from repro.memory.prefetcher import NextLinePrefetcher
from repro.memory.streambuffer import StreamBufferUnit
from repro.obs.events import (
    FetchStall,
    MissService,
    PolicySwitch,
    Redirect,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.program.program import Program
from repro.trace.event import Trace

_PLAIN = int(InstrKind.PLAIN)
_COND = int(InstrKind.COND_BRANCH)
_CALL = int(InstrKind.CALL)

_CORRECT = FetchOutcome.CORRECT
_MISPREDICT = FetchOutcome.MISPREDICT
_ORIGIN_RIGHT = LineOrigin.DEMAND_RIGHT
_ORIGIN_PREFETCH = LineOrigin.PREFETCH

#: Stands in for the tag store off the fast path: slot 0 (set mask 0)
#: matches no line, so every probe takes ``_fetch_right_line``.
_NO_TAGS = (None,)


class _ForkEvents(list):
    """A fork's event sink: it keeps every event, in order, for
    :meth:`FetchEngine.adopt` to replay into the committed sink."""

    emit = list.append


def _wrong_path_modes(policy: FetchPolicy) -> tuple[tuple[bool, bool], ...]:
    """``(fills, blocking)`` of a wrong-path walk under *policy*, indexed
    by whether the redirect is a mispredict (else a misfetch)."""
    if policy is FetchPolicy.OPTIMISTIC:
        return ((True, True),) * 2
    if policy is FetchPolicy.RESUME:
        return ((True, False),) * 2
    if policy is FetchPolicy.DECODE:
        # Decode's guard catches misfetches (the redirect arrives with
        # the decode it was waiting for) but not mispredicts.
        return ((False, True), (True, True))
    return ((False, False),) * 2  # ORACLE, PESSIMISTIC


def _resolve_noop(
    pht_index: int | None, taken: bool, pc: int | None = None
) -> None:
    """Stand-in for BranchUnit.resolve when the fetch-clock queue must
    keep gating (branch_full, force_resolve) without training the
    predictor — replay runs."""


def check_run(program: Program, trace: Trace, warmup_instructions: int) -> None:
    """The preconditions every engine's ``run`` shares: *trace* was
    generated from *program*, and the warmup is non-negative and leaves
    part of the trace to measure."""
    if trace.program_name != program.name:
        raise SimulationError(
            f"trace is for {trace.program_name!r}, "
            f"engine built for {program.name!r}"
        )
    if warmup_instructions < 0:
        raise SimulationError(f"negative warmup {warmup_instructions}")
    if warmup_instructions >= trace.n_instructions:
        raise SimulationError(
            f"warmup {warmup_instructions} consumes the whole trace "
            f"({trace.n_instructions} instructions)"
        )


def build_branch_unit(config: SimConfig, stream=None):
    """Construct the branch unit described by *config*.

    With a recorded :class:`~repro.branch.stream.PredictionStream`, a
    replay facade is returned instead of a live predictor — the seam
    prediction-stream replay plugs into (bit-identical results; see
    tests/core/test_stream_replay.py).
    """
    if stream is not None:
        # Deferred import: repro.branch.stream imports repro.core.wrongpath.
        from repro.branch.stream import ReplayBranchUnit

        return ReplayBranchUnit(stream, config)
    branch = config.branch
    return BranchUnit(
        btb=BranchTargetBuffer(entries=branch.btb_entries, assoc=branch.btb_assoc),
        pht=make_pht(branch.pht_kind, branch.pht_entries),
        history=GlobalHistory(branch.effective_history_bits),
        coupled=branch.coupled,
        speculative_btb_update=branch.speculative_btb_update,
        ras=ReturnAddressStack(branch.ras_depth) if branch.use_ras else None,
        misfetch_penalty_slots=config.misfetch_penalty_slots,
        mispredict_penalty_slots=config.mispredict_penalty_slots,
    )


class FetchEngine:
    """One simulation instance: program + configuration.

    With an :class:`~repro.obs.observer.Observer`, the engine emits typed
    cycle-level events into the observer's sink (when the sink is enabled)
    and publishes every component's counters into the observer's metrics
    registry at the end of the run.  Observation is strictly passive: the
    simulated timeline and all reported results are identical with or
    without it.
    """

    backend = "event"

    def __init__(
        self,
        program: Program,
        config: SimConfig,
        observer: Observer | None = None,
        stream=None,
        unit: BranchUnit | None = None,
    ) -> None:
        self.program = program
        self.config = config
        # The policy is a per-interval input read through the schedule
        # seam (SIM012): interval k runs schedule.policy_for(k).  Static
        # schedules resolve to config.policy for every interval, keeping
        # the paper's regime bit-identical.
        self.schedule = build_schedule(config)
        self.policy = self.schedule.policy_for(0)
        self._wrong_path_modes = _wrong_path_modes(self.policy)
        self.policy_switches = 0
        #: Shadow simulations run on forks of this engine (set by the
        #: adaptive driver; published under ``adaptive.shadow_runs``).
        self.shadow_runs = 0
        self.interval_log: list[IntervalStats] = []
        if stream is not None:
            from repro.branch.stream import replay_eligible

            if not replay_eligible(config):
                raise SimulationError(
                    "prediction-stream replay requires "
                    "branch_schedule='architectural' or perfect_cache "
                    f"(config: {config.describe()})"
                )
            stream.require_compatible(program.name, config)
        # A real-cache architectural cell trains the predictor on the
        # perfect-cache clock, which only a recorded stream carries: given
        # none, the engine records one from the trace it runs (see
        # _start_run).  A live cell trains on its fetch clock, which with
        # a perfect cache *is* that clock.
        self._records = (
            stream is None
            and unit is None
            and config.branch_schedule == "architectural"
            and not config.perfect_cache
        )
        self._replay = stream is not None or self._records
        # A given *unit* is the stream recorder's (see build_stream).
        if unit is None and not self._records:
            unit = build_branch_unit(config, stream)
        self.unit = unit
        self._timing_resolve = _resolve_noop if self._replay else self.unit.resolve
        self.observer = observer
        if observer is not None:
            self._sink = observer.sink if observer.sink.enabled else None
            # Distribution samples are buffered as raw values (list.append
            # is several times cheaper than Histogram.observe) and folded
            # into the registry's histograms once, at publish time.
            self._miss_durations: list[int] | None = []
            self._redirect_penalties: list[int] | None = []
        else:
            self._sink = None
            self._miss_durations = None
            self._redirect_penalties = None
        interleave = (
            None
            if config.bus_interleave_cycles is None
            else config.bus_interleave_cycles * config.issue_width
        )
        self.bus = MemoryBus(interleave_slots=interleave)
        self.station = PendingFillStation(
            capacity=config.fill_buffers, sink=self._sink
        )
        self.l2 = (
            SecondLevelCache(
                config.l2_size_bytes,
                line_size=config.cache.line_size,
                assoc=config.l2_assoc,
                hit_cycles=config.l2_hit_cycles,
                miss_cycles=config.miss_penalty_cycles,
            )
            if config.l2_size_bytes is not None and not config.perfect_cache
            else None
        )
        if config.perfect_cache:
            self.cache: InstructionCache | None = None
            self.prefetcher: NextLinePrefetcher | None = None
        else:
            self.cache = InstructionCache(
                config.cache.size_bytes,
                line_size=config.cache.line_size,
                assoc=config.cache.assoc,
            )
            self.prefetcher = (
                NextLinePrefetcher(
                    self.cache,
                    self.bus,
                    self.station,
                    self._fill_duration,
                    variant=config.prefetch_variant,
                    next_line_enabled=config.prefetch,
                    sink=self._sink,
                )
                if config.prefetch or config.target_prefetch
                else None
            )
        # The prefetcher's per-fetch hook (None: its variant has none).
        self._on_line_fetch = (
            None if self.prefetcher is None else self.prefetcher.on_line_fetch
        )
        self.streams = (
            StreamBufferUnit(
                self.bus,
                n_buffers=config.stream_buffers,
                depth=config.stream_buffer_depth,
                penalty_slots=self._fill_duration,
            )
            if config.stream_buffers and not config.perfect_cache
            else None
        )
        self.classifier = (
            MissClassifier(
                config.cache.size_bytes,
                line_size=config.cache.line_size,
                assoc=config.cache.assoc,
            )
            if config.classify and not config.perfect_cache
            else None
        )
        self.penalties = PenaltyAccumulator()
        self.counters = EngineCounters()
        # Prefetches issued before the warmup boundary but still live at
        # the reset (fresh in the cache or in flight in the station).
        # They are counted into prefetch.issued_total at publish time so
        # the usefulness partition stays exact across a warmup reset.
        self._carried_prefetches = 0
        # Unresolved conditional branches, in fetch order:
        # (resolve_at_slot, pht_index, actual_taken, branch_pc).
        self._unresolved: deque[tuple[int, int | None, bool, int]] = deque()
        # Cached geometry / latencies.
        self._line_shift = config.cache.line_size.bit_length() - 1
        self._penalty_slots = config.miss_penalty_slots
        self._decode_slots = config.decode_latency_slots
        self._resolve_slots = config.resolve_latency_slots
        self._max_unresolved = config.max_unresolved
        self._fetchahead = (
            config.fetchahead_distance
            if self.prefetcher is not None and self.prefetcher.on_line_end_near
            else 0
        )
        # Hot-loop fast path eligibility: any real cache with no lockstep
        # classifier and no stream buffers can inline the MRU-hit case of
        # _fetch_right_line (see _run_span); at every associativity slot
        # ``line & set_mask`` of the way-major tag store is the MRU way,
        # whose hit moves nothing.  Purely an optimisation — results are
        # bit-identical either way (tests/core/test_engine_fast_path.py).
        self._fast_path = (
            self.cache is not None
            and self.classifier is None
            and self.streams is None
        )

    def _fill_duration(self, line: int) -> int:
        """Service time (slots) for one line fill, touching the L2.

        Without an L2 this is the flat miss penalty; with one, the L2 is
        probed (and on a miss, allocated), so the duration is the L2 hit
        time or the memory latency.  Must be called exactly once per
        issued fill request.
        """
        if self.l2 is None:
            return self._penalty_slots
        return self.l2.access(line) * self.config.issue_width

    # -- resolution bookkeeping ------------------------------------------------

    def _apply_resolutions(self, now: int) -> None:
        """Resolve every queued branch whose resolve time has passed.

        A live run trains the predictor here; a replay run trained it
        when the stream was recorded, so this only drains the queue that
        gates fetch.
        """
        queue = self._unresolved
        resolve = self._timing_resolve
        while queue and queue[0][0] <= now:
            _, pht_index, taken, pc = queue.popleft()
            resolve(pht_index, taken, pc)

    def _depth_gate(self, t: int) -> int:
        """Stall (branch_full) until an unresolved-branch slot is free."""
        self._apply_resolutions(t)
        queue = self._unresolved
        if len(queue) < self._max_unresolved:
            return t
        head = queue[0][0]
        if head > t:
            self.penalties.branch_full += head - t
            if self._sink is not None:
                self._sink.emit(
                    FetchStall(t=t, cause="branch_full", slots=head - t)
                )
            t = head
        self._apply_resolutions(t)
        return t

    # -- right-path fetch --------------------------------------------------------

    def _fetch_right_line(self, line: int, t: int) -> int:
        """Probe *line* on the correct path at slot *t*; return the slot at
        which instructions from it can issue (>= t after any stalls).

        The probe itself is already counted (``right_probes`` and the
        cache's ``probes`` / ``hits``, credited per span by
        :meth:`_run_blocks`); a miss moves it from hits to misses."""
        cache = self.cache
        if cache is None:
            return t
        station = self.station
        pending = station._pending  # identity-stable (pending.py)
        if pending:
            station.drain(t, cache)
        hit = cache.probe_credited(line)
        if self.classifier is not None:
            self.classifier.right_path_access(line, hit)
        if hit:
            if self._on_line_fetch is not None:
                self._on_line_fetch(line, t)
            if self.streams is not None:
                # Demand accesses take priority on the channel; streams
                # refill their FIFOs during hit cycles.
                self.streams.pump(t)
            return t
        self.counters.right_misses += 1
        penalties = self.penalties
        inflight = station.lookup(line) if pending else None
        if inflight is not None:
            # The very line is already in flight (wrong-path fill or
            # prefetch): wait for it instead of issuing a duplicate
            # request — the paper's resume-buffer index check.
            inflight_done = inflight.done_at
            penalties.bus += inflight_done - t
            if inflight.origin is FillOrigin.PREFETCH:
                self.counters.prefetch_late += 1
            if self._sink is not None:
                self._sink.emit(
                    FetchStall(
                        t=t, cause="bus", slots=inflight_done - t, line=line
                    )
                )
            t = inflight_done
            station.drain(t, cache)
            if inflight.origin is FillOrigin.PREFETCH:
                # The merge consumed the prefetch; keep the usefulness
                # partition from also counting a later demand hit.
                cache.consume_prefetch(line)
            self.counters.inflight_merges += 1
            if self._on_line_fetch is not None:
                self._on_line_fetch(line, t)
            return t
        if self.streams is not None:
            # Jouppi stream buffers: a head hit supplies the line without
            # a memory request, waiting only out any remaining flight
            # time.  No conservative guard applies — the line is already
            # on chip, so no (possibly wrong-path) memory fetch is risked.
            available_at = self.streams.probe(line, t)
            if available_at is not None:
                penalties.rt_icache += available_at - t
                if self._sink is not None and available_at > t:
                    self._sink.emit(
                        FetchStall(
                            t=t,
                            cause="rt_icache",
                            slots=available_at - t,
                            line=line,
                        )
                    )
                t = available_at
                cache.fill(line, LineOrigin.PREFETCH)
                # A stream install is demand-consumed on arrival; it must
                # not enter the next-line prefetch usefulness partition.
                cache.consume_prefetch(line)
                if self.classifier is not None:
                    self.classifier.optimistic_fill()
                self.streams.pump(t)
                if self._on_line_fetch is not None:
                    self._on_line_fetch(line, t)
                return t
        policy = self.policy
        if policy is FetchPolicy.PESSIMISTIC or policy is FetchPolicy.DECODE:
            # The conservative tax: the previous instruction (fetched at
            # t - 1) must decode; Pessimistic additionally waits for every
            # outstanding branch to resolve.
            guard = t - 1 + self._decode_slots
            if policy is FetchPolicy.PESSIMISTIC and self._unresolved:
                last_resolve = self._unresolved[-1][0]
                if last_resolve > guard:
                    guard = last_resolve
            if guard > t:
                penalties.force_resolve += guard - t
                if self._sink is not None:
                    self._sink.emit(
                        FetchStall(
                            t=t,
                            cause="force_resolve",
                            slots=guard - t,
                            line=line,
                        )
                    )
                t = guard
                self._apply_resolutions(t)
        duration = self._fill_duration(line)
        start, done = self.bus.request(t, duration)
        if start > t:
            penalties.bus += start - t
            if self._sink is not None:
                self._sink.emit(
                    FetchStall(t=t, cause="bus", slots=start - t, line=line)
                )
            t = start
        penalties.rt_icache += duration
        if self._miss_durations is not None:
            self._miss_durations.append(duration)
        if self._sink is not None:
            self._sink.emit(
                MissService(t=start, line=line, path="right", start=start, done=done)
            )
            self._sink.emit(
                FetchStall(t=start, cause="rt_icache", slots=duration, line=line)
            )
        t = done
        if pending:
            station.drain(t, cache)
        cache.fill(line, _ORIGIN_RIGHT)
        self.counters.right_fills += 1
        if self.classifier is not None:
            self.classifier.optimistic_fill()
        if self.streams is not None:
            # A full miss (re)allocates a stream at the next line; the
            # bus just freed, so the first stream prefetch can start now.
            self.streams.allocate(line, t)
            self.streams.pump(t)
        if self.prefetcher is not None:
            if self.prefetcher.on_demand_fill is not None:
                self.prefetcher.on_demand_fill(line, t)
            if self._on_line_fetch is not None:
                self._on_line_fetch(line, t)
        return t

    # -- wrong-path fetch ----------------------------------------------------------

    def _walk_wrong_path(
        self,
        start_pc: int | None,
        window_start: int,
        window_end: int,
        outcome: FetchOutcome,
        segments: dict | None,
    ) -> int:
        """Fetch down the wrong path during a redirect window.

        A live walk follows the predictor through *segments*, the
        image's wrong-path segment memo at this line size
        (:func:`~repro.core.wrongpath.segment_memo`); with ``None`` the
        replayed stream supplies the recorded walk.  Returns the slot at
        which correct-path fetch resumes — the window end, or later when
        a blocking policy is still waiting on a wrong-path fill (that
        overshoot is the ``wrong_icache`` component).
        """
        if start_pc is None or window_start >= window_end:
            return window_end
        cache = self.cache
        if cache is None:
            return window_end
        if segments is None:
            # The recorded walk was bounded by the same window length and
            # depends only on the image + predictor state, so its split at
            # this cell's line size (done once per stream and line size)
            # reproduces the live walk exactly.
            lines = self.unit.iter_last_wrong_path_lines(cache.line_size)
        else:
            lines = walk_segments(
                segments,
                self.program.image,
                self.unit,
                start_pc,
                window_end - window_start,
                cache.line_size,
            )
        fills, blocking = self._wrong_path_modes[outcome is _MISPREDICT]
        policy = self.policy
        station = self.station
        pending = station._pending  # identity-stable (pending.py)
        on_fetch = self._on_line_fetch
        tags = cache._tags
        multiway = cache.assoc > 1
        set_mask = cache.set_mask
        set_shift = cache._set_shift
        cur = window_start
        resume = window_end
        # Probes and fetched instructions are counted in locals and
        # added to the counters once, at the single exit below.
        probes = 0
        fetched = 0
        for line, n in lines:
            if cur >= window_end:
                break
            if pending:
                station.drain(cur, cache)
            probes += 1
            if tags[line & set_mask] == line >> set_shift or (
                multiway and cache.contains(line)
            ):
                if on_fetch is not None:
                    on_fetch(line, cur)
                fetched += n
                cur += n
                continue
            self.counters.wrong_misses += 1
            if self.classifier is not None:
                self.classifier.wrong_path_miss()
            inflight_done = station.done_at(line) if pending else None
            if inflight_done is not None:
                # This very line is already in flight (e.g. a prefetch).
                if blocking and fills:
                    if inflight_done >= window_end:
                        self._charge_wrong_icache(inflight_done, window_end, line)
                        resume = inflight_done
                        break
                elif not (
                    policy is FetchPolicy.RESUME and inflight_done < window_end
                ):
                    break  # redirect (or idle) until the window ends
                cur = inflight_done
                station.drain(cur, cache)
                fetched += n
                cur += n
                continue
            if not fills:
                break  # conservative policies idle out the window
            if policy is FetchPolicy.RESUME and station.busy(cur):
                # The single background-fill buffer is occupied; a second
                # outstanding background fill cannot be started.
                break
            request_at = cur + (self._decode_slots if policy is FetchPolicy.DECODE else 0)
            duration = self._fill_duration(line)
            start, done = self.bus.request(request_at, duration)
            self.counters.wrong_fills += 1
            if self._miss_durations is not None:
                self._miss_durations.append(duration)
            if self._sink is not None:
                self._sink.emit(
                    MissService(
                        t=start, line=line, path="wrong", start=start, done=done
                    )
                )
            if self.classifier is not None:
                self.classifier.optimistic_fill()
            if blocking:
                cache.fill(line, LineOrigin.DEMAND_WRONG)
                if done >= window_end:
                    self._charge_wrong_icache(done, window_end, line)
                    resume = done
                    break
            elif done <= window_end:
                # Resume: never stall past the window.
                cache.fill(line, LineOrigin.DEMAND_WRONG)
            else:
                station.start(line, done, FillOrigin.WRONG_PATH)
                break
            cur = done
            if on_fetch is not None:
                on_fetch(line, cur)
            fetched += n
            cur += n
        counters = self.counters
        counters.wrong_probes += probes
        counters.wrong_instructions += fetched
        return resume

    def _charge_wrong_icache(self, ready: int, window_end: int, line: int) -> None:
        """Charge a blocking wrong-path wait for *line* (ready at slot
        *ready*) beyond the window end as ``wrong_icache``."""
        self.penalties.wrong_icache += ready - window_end
        if self._sink is not None and ready > window_end:
            self._sink.emit(
                FetchStall(
                    t=window_end,
                    cause="wrong_icache",
                    slots=ready - window_end,
                    line=line,
                )
            )

    # -- measurement warmup ---------------------------------------------------------

    def _reset_measurement(self) -> None:
        """Zero all statistics while keeping architectural state.

        Used at the end of the warmup window: the caches, predictors, and
        the slot clock keep their contents (that is the point of warming
        up); only the measured counters restart.  This mirrors the paper's
        effectively-warm measurements (its traces are billions of
        instructions, so compulsory misses are negligible there).

        Prefetches issued during warmup that are still live at the reset
        (fresh lines in the cache, in-flight fills in the station) will be
        judged useful/late/wasted *after* the boundary, so their count is
        snapshotted here and folded into ``prefetch.issued_total`` at
        publish time — otherwise the usefulness partition would overflow
        its issue count for every warmed-up run.
        """
        self.penalties = PenaltyAccumulator()
        self.counters = EngineCounters()
        self.unit.stats = type(self.unit.stats)()
        if self.prefetcher is not None and self.cache is not None:
            self._carried_prefetches = (
                self.cache.fresh_prefetch_count()
                + self.station.pending_prefetches()
            )
        if self.cache is not None:
            self.cache.stats = type(self.cache.stats)()
        if self.prefetcher is not None:
            self.prefetcher.reset()
        if self.classifier is not None:
            self.classifier.counts = type(self.classifier.counts)()
        if self.streams is not None:
            self.streams.reset_stats()
        if self.l2 is not None:
            self.l2.reset_stats()
        self.bus.requests = 0
        self.bus.busy_wait_slots = 0
        # Station fill statistics restart with the measurement window (the
        # pending fills themselves are architectural state and survive).
        self.station.installed = 0
        self.station.overwritten = 0
        self.station.overwritten_prefetch = 0
        # So do the distribution samples (kept only under an observer).
        if self._miss_durations is not None:
            self._miss_durations.clear()
            self._redirect_penalties.clear()

    # -- the main loop ------------------------------------------------------------

    def run(self, trace: Trace, warmup_instructions: int = 0) -> SimulationResult:
        """Simulate *trace*; statistics restart after *warmup_instructions*.

        The warmup prefix is simulated in full (it populates the caches and
        predictors) but excluded from every reported metric.

        With ``config.adaptive_interval`` set, the trace is consumed in
        interval spans: the schedule seam supplies each interval's policy
        and :class:`IntervalStats` are recorded per span.  Without it the
        whole trace runs as one span — the exact pre-seam hot loop.
        """
        check_run(self.program, trace, warmup_instructions)
        if self.schedule.driver_required:
            raise SimulationError(
                f"policy_schedule={self.config.policy_schedule!r} needs "
                "the adaptive driver (shadow/oracle forks); build the "
                "engine through build_engine"
            )
        self._start_run(trace)
        if self.config.adaptive_interval is None:
            t, _ = self._run_span(self.plans(trace), 0, warmup_instructions)
        else:
            t = self._run_intervals(trace, warmup_instructions)
        self._finish_run(t)
        return self._build_result(trace)

    def _start_run(self, trace: Trace) -> None:
        """Reset per-run state; a replaying engine rewinds its stream,
        recording it from *trace* first if it was given none."""
        if self._records:
            # Deferred import: repro.branch.stream imports this module.
            from repro.branch.stream import build_stream

            self.unit = build_branch_unit(
                self.config, build_stream(self.program, trace, self.config)
            )
        if self._replay:
            self.unit.rewind()
            self.unit.stream.require_trace(trace)
        self.interval_log = []

    def plans(self, trace: Trace) -> list[BlockPlan]:
        """*trace* lowered for this engine's line size, one shared
        :class:`~repro.core.lowering.BlockPlan` per record (memoized per
        trace, image and line size, so every cell of a sweep and every
        fork reuses one lowering)."""
        return fetch_program(
            trace, self.program.image, self.config.cache.line_size
        ).plans

    def _run_intervals(self, trace: Trace, warmup_instructions: int) -> int:
        """Consume *trace* interval by interval through the schedule."""
        schedule = self.schedule
        plans = self.plans(trace)
        t = 0
        warm_left = warmup_instructions
        for k, (lo, hi) in enumerate(
            interval_spans(trace.records, self.config.adaptive_interval)
        ):
            self.set_policy(schedule.policy_for(k), t=t, interval=k)
            snapshot = self.snapshot_stats()
            warm_before = warm_left
            t, warm_left = self._run_span(plans[lo:hi], t, warm_left)
            reset = warm_before > 0 and warm_left <= 0
            stats = self.interval_delta(k, snapshot, reset=reset)
            self.commit_interval(stats, reset=reset)
            schedule.observe(stats)
        return t

    def _finish_run(self, t: int) -> None:
        """Drain the resolution queue after the last span."""
        self._apply_resolutions(t + self._resolve_slots)

    def _run_span(
        self, plans: list[BlockPlan], t: int, warm_left: int
    ) -> tuple[int, int]:
        """Run one span of lowered trace records starting at slot *t*.

        With *warm_left* warmup instructions still to go, the measurement
        restarts (:meth:`_reset_measurement`) just before the first
        record at which the span's running instruction count reaches
        *warm_left*: that index comes from the lowering before anything
        runs (:func:`~repro.core.lowering.warmup_split`), so the span
        runs as two :meth:`_run_blocks` passes around the reset and no
        record tests the warmup.  Returns the advanced ``(t,
        warm_left)``.
        """
        if warm_left > 0:
            split, warm_instructions = warmup_split(plans, warm_left)
            if split < len(plans):
                t = self._run_blocks(plans[:split], t)
                self._reset_measurement()
                plans = plans[split:]
            warm_left -= warm_instructions
        return self._run_blocks(plans, t), warm_left

    def _run_blocks(self, plans: list[BlockPlan], t: int) -> int:
        """Run lowered trace records from slot *t*; return the advanced
        slot.

        This is the engine hot loop: one pass over each record's
        :class:`~repro.core.lowering.BlockPlan` probes, then its
        terminator.  It counts nothing the lowering already knows: the
        blocks, instructions, right-path probes and conditional branches
        of the whole pass are added up front from the plans' packed
        counts (:func:`~repro.core.lowering.span_counts`), with every
        probe counted as a cache hit and every conditional as a correct
        prediction and a BTB hit; the rare miss, misprediction or BTB
        miss moves itself out of those counts.  Under the fast-path
        configuration (a real cache of any associativity, no classifier,
        no stream buffers) a hit on the MRU way is handled inline, after
        the same fill-station drain — replicating the bookkeeping of
        :meth:`InstructionCache.probe_credited` and
        :meth:`_fetch_right_line` exactly — so the dominant all-hits
        case costs a tag compare and an origin check per line.  Hits on
        a lower way, misses and every other configuration take
        :meth:`_fetch_right_line`.  A conditional
        branch goes to the branch unit's ``predict_conditional``, every
        other transfer to its ``predict``.

        All mutable component state lives on ``self`` and carries across
        passes; the only pass-local state is the cached-locals block
        below.
        """
        instructions, n_probes, conditionals = span_counts(plans)
        counters = self.counters
        counters.blocks += len(plans)
        counters.instructions += instructions
        penalties = self.penalties
        unit = self.unit
        unit.count_conditionals(conditionals)
        predict = unit.predict
        predict_conditional = unit.predict_conditional
        fetch_line = self._fetch_right_line
        resolve = self._timing_resolve
        # A branch fetched at slot t - 1 resolves at t + resolve_lag.
        resolve_lag = self._resolve_slots - 1
        unresolved = self._unresolved
        max_unresolved = self._max_unresolved
        prefetcher = self.prefetcher
        on_fetch = self._on_line_fetch
        fetchahead = self._fetchahead
        target_prefetch = self.config.target_prefetch and prefetcher is not None
        cache = self.cache
        segments = (
            None
            if self._replay or cache is None
            else segment_memo(self.program.image, cache.line_size)
        )
        if cache is not None:
            counters.right_probes += n_probes
            stats = cache.stats
            stats.probes += n_probes
            stats.hits += n_probes
        if self._fast_path:
            tags = cache._tags
            origins = cache._origins
            pf_fresh = cache._pf_fresh
            set_mask = cache.set_mask
            set_shift = cache._set_shift
            station = self.station
            pending = station._pending  # identity-stable (pending.py)
        else:
            # No tag matches, so every probe takes _fetch_right_line.
            tags = _NO_TAGS
            origins = pf_fresh = station = None
            set_mask = set_shift = 0
            pending = ()
        for (
            _counts, probes, kind, term_addr, kind_enum,
            static_target, fall, taken, next_pc,
        ) in plans:
            for line, chunk, gate, tail in probes:
                if gate and unresolved:
                    # A conditional's terminator: the speculation-depth
                    # gate (_depth_gate, inlined for the not-full case).
                    while unresolved and unresolved[0][0] <= t:
                        _, pht_index, q_taken, pc = unresolved.popleft()
                        resolve(pht_index, q_taken, pc)
                    if len(unresolved) >= max_unresolved:
                        t = self._depth_gate(t)
                if pending:
                    station.drain(t, cache)
                if tags[set_idx := line & set_mask] == line >> set_shift:
                    # Inlined probe_credited() MRU-hit path (no LRU
                    # move) plus the engine-side hit bookkeeping of
                    # _fetch_right_line, after the same station drain.
                    if origins[set_idx] is not _ORIGIN_RIGHT:
                        if origins[set_idx] is _ORIGIN_PREFETCH:
                            stats.prefetch_hits += 1
                            if pf_fresh[set_idx]:
                                pf_fresh[set_idx] = False
                                stats.prefetch_used += 1
                        else:
                            stats.wrongpath_hits += 1
                    if prefetcher is not None:
                        if on_fetch is not None:
                            on_fetch(line, t)
                        if tail < fetchahead:
                            # Smith & Hsu trigger: fetch reached within
                            # the fetchahead distance of the line's end.
                            prefetcher.on_line_end_near(line, t)
                else:
                    t = fetch_line(line, t)
                    if tail < fetchahead:
                        prefetcher.on_line_end_near(line, t)
                    if gate:
                        # The terminator issues at the slot the miss
                        # returned: resolutions due by then train the
                        # predictor first.  (After a hit the slot is the
                        # one the depth gate just drained to.)
                        while unresolved and unresolved[0][0] <= t:
                            _, pht_index, q_taken, pc = unresolved.popleft()
                            resolve(pht_index, q_taken, pc)
                t += chunk
            if kind == _COND:
                # The terminator was the gated last probe, so every
                # resolution due by its slot (t - 1) is applied.
                result = predict_conditional(term_addr, static_target, taken, fall)
                unresolved.append(
                    (t + resolve_lag, result.pht_index, taken, term_addr)
                )
                if (
                    target_prefetch
                    and static_target is not None
                    and result.predicted_taken is not None
                ):
                    # Target prefetching: fetch the line of the arm the
                    # prediction did NOT follow (the predicted arm is
                    # being fetched anyway).
                    alt = fall if result.predicted_taken else static_target
                    prefetcher.prefetch_target(alt >> self._line_shift, t)
            elif kind == _PLAIN:
                continue
            else:
                t_br = t - 1
                while unresolved and unresolved[0][0] <= t_br:
                    _, pht_index, q_taken, pc = unresolved.popleft()
                    resolve(pht_index, q_taken, pc)
                result = predict(
                    term_addr, kind_enum, static_target, taken, next_pc, fall
                )
                if kind == _CALL:
                    unit.notify_call(fall)
            if result.outcome is _CORRECT:
                continue
            t_br = t - 1
            penalties.branch += result.penalty_slots
            if self._redirect_penalties is not None:
                self._redirect_penalties.append(result.penalty_slots)
            if self._sink is not None:
                self._sink.emit(
                    Redirect(
                        t=t_br,
                        pc=term_addr,
                        outcome=result.outcome.value,
                        cause=result.cause.value,
                        penalty_slots=result.penalty_slots,
                    )
                )
                self._sink.emit(
                    FetchStall(
                        t=t_br, cause="branch", slots=result.penalty_slots
                    )
                )
            window_start = t_br + 1 + result.wrong_path_delay
            window_end = t_br + 1 + result.penalty_slots
            t = self._walk_wrong_path(
                result.wrong_path_start, window_start, window_end,
                result.outcome, segments,
            )
        return t

    # -- per-interval policy machinery -----------------------------------------

    def set_policy(
        self, policy: FetchPolicy, t: int = 0, interval: int = 0
    ) -> None:
        """Swap the fetch policy at an interval boundary.

        In-flight state is deliberately untouched: pending fills keep
        draining, the bus stays busy until its scheduled time, and the
        unresolved-branch queues keep gating — the new policy only
        governs decisions taken from here on.  That is the warm-state
        handoff the adaptive schedules rely on.
        """
        if policy is self.policy:
            return
        previous = self.policy
        self.policy = policy
        self._wrong_path_modes = _wrong_path_modes(policy)
        self.policy_switches += 1
        if self._sink is not None:
            self._sink.emit(
                PolicySwitch(
                    t=t,
                    interval=interval,
                    previous=previous.value,
                    policy=policy.value,
                )
            )

    def snapshot_stats(self) -> tuple:
        """Opaque counter snapshot for :meth:`interval_delta`."""
        counters = self.counters
        return (
            self.penalties.as_dict(),
            counters.instructions,
            counters.blocks,
            counters.right_misses,
            counters.wrong_misses,
        )

    def interval_delta(
        self, index: int, snapshot: tuple, reset: bool = False
    ) -> IntervalStats:
        """Stats accumulated since *snapshot*, as one interval record.

        With *reset* (the warmup boundary fell inside the span), the
        measured counters were zeroed mid-span, so the current totals
        *are* the delta — subtracting the pre-span snapshot would go
        negative.
        """
        counters = self.counters
        pen = self.penalties.as_dict()
        if reset:
            penalties = pen
            instructions = counters.instructions
            blocks = counters.blocks
            right_misses = counters.right_misses
            wrong_misses = counters.wrong_misses
        else:
            pen0, instr0, blocks0, right0, wrong0 = snapshot
            penalties = {name: pen[name] - pen0[name] for name in COMPONENTS}
            instructions = counters.instructions - instr0
            blocks = counters.blocks - blocks0
            right_misses = counters.right_misses - right0
            wrong_misses = counters.wrong_misses - wrong0
        return IntervalStats(
            index=index,
            policy=self.policy,
            instructions=instructions,
            blocks=blocks,
            right_misses=right_misses,
            wrong_misses=wrong_misses,
            penalties=penalties,
        )

    def commit_interval(self, stats: IntervalStats, reset: bool = False) -> None:
        """Append one finished interval to the run's interval log.

        A warmup reset inside the interval invalidates every earlier
        entry (their counters were zeroed away), so the log restarts —
        keeping the partition invariant exact: logged intervals always
        sum to the measured whole-run totals.
        """
        if reset:
            self.interval_log.clear()
        self.interval_log.append(stats)

    def fork(self) -> FetchEngine:
        """A deep copy of this engine's warm state for shadow/oracle runs.

        The immutable cell inputs (program, config, and a replayed
        prediction stream) and the driver's schedule are shared,
        everything mutable — caches, predictor, bus, fill station,
        queues, counters and the measured window's distribution samples
        (flat lists of ints, copied in C) — is copied.  Observation
        never is: the fork gets no observer, an empty interval log and,
        where this engine has a sink, an event buffer of its own, which
        only :meth:`adopt` hands on.
        """
        memo = {
            id(self.program): self.program,
            id(self.config): self.config,
            id(self.schedule): self.schedule,
            id(self.interval_log): [],
        }
        if self._replay:
            memo[id(self.unit.stream)] = self.unit.stream
        if self.observer is not None:
            memo[id(self.observer)] = None
            memo[id(self._miss_durations)] = self._miss_durations.copy()
            memo[id(self._redirect_penalties)] = self._redirect_penalties.copy()
        if self._sink is not None:
            memo[id(self._sink)] = _ForkEvents()
        return copy.deepcopy(self, memo)

    def adopt(self, fork: FetchEngine) -> None:
        """Absorb *fork*'s warm state as this engine's committed timeline.

        The inverse hand-off of :meth:`fork`: after a fork has simulated
        an interval, the driver adopts its end state instead of
        re-running the interval here (the simulation is deterministic).
        The fork's samples (copies of this engine's plus the interval's,
        restarted if the interval crossed the warmup boundary) replace
        this engine's, its buffered events go to this engine's sink in
        order, and the adopted fill station and prefetcher emit into
        that sink again.  The adopted prefetcher and stream buffers time
        their fills through this engine's ``_fill_duration`` again, so
        no reference to the spent fork survives into later forks.

        Driver-owned bookkeeping stays put: the schedule (shared with the
        driver by identity), the interval log (committed by the driver
        via :meth:`commit_interval`), and the shadow-run count (the fork
        carries a stale pre-interval copy).
        """
        keep = ("observer", "_sink", "schedule", "shadow_runs", "interval_log")
        for name, value in fork.__dict__.items():
            if name not in keep:
                self.__dict__[name] = value
        sink = self._sink
        if sink is not None:
            for event in fork._sink:
                sink.emit(event)
        self.station.sink = sink
        if self.prefetcher is not None:
            self.prefetcher.sink = sink
            self.prefetcher.fill_duration = self._fill_duration
        if self.streams is not None:
            self.streams.fill_duration = self._fill_duration

    def _build_result(self, trace: Trace) -> SimulationResult:
        counters = self.counters
        if self.prefetcher is not None:
            counters.prefetches = self.prefetcher.issued
            counters.target_prefetches = self.prefetcher.target_issued
        if self.streams is not None:
            counters.stream_prefetches = self.streams.prefetches
            counters.stream_hits = self.streams.head_hits
        if self.l2 is not None:
            counters.l2_hits = self.l2.hits
            counters.l2_misses = self.l2.misses
        if self.cache is not None:
            counters.prefetch_hits = self.cache.stats.prefetch_hits
        classification = None
        if self.classifier is not None:
            classification = self.classifier.finalize(
                self.program.name, counters.instructions
            )
        if self.observer is not None:
            self._publish_metrics(self.observer.registry)
        metadata: dict[str, object] = {
            "trace_instructions": trace.n_instructions,
            "trace_blocks": trace.n_blocks,
            "trace_seed": trace.seed,
        }
        if self.interval_log:
            metadata["policy_switches"] = self.policy_switches
            metadata["shadow_runs"] = self.shadow_runs
        return SimulationResult(
            program=self.program.name,
            config=self.config,
            penalties=self.penalties,
            counters=counters,
            branch_stats=self.unit.stats,
            cache_stats=self.cache.stats if self.cache is not None else None,
            classification=classification,
            metadata=metadata,
            intervals=tuple(self.interval_log),
        )

    def _publish_metrics(self, registry: MetricsRegistry) -> None:
        """Publish every component's counters into *registry*.

        Called once at the end of a run; the names form the stable metric
        namespace documented in ``docs/observability.md``.  The prefetch
        usefulness partition (``useful + late + wasted == issued``) is
        computed independently of the issue count so tests can check it as
        a real invariant; prefetches still live across a warmup reset are
        counted into the issue side (see :meth:`_reset_measurement`), so
        the partition is exact for warmed-up runs too.
        """
        counters = self.counters
        penalties = self.penalties
        for name, samples in (
            ("engine.miss_service_slots", self._miss_durations),
            ("engine.redirect_penalty_slots", self._redirect_penalties),
        ):
            # Samples take a handful of distinct values: fold each once.
            hist = registry.histogram(name)
            for value, n in sorted(Counter(samples).items()):
                hist.observe(value, n)
            samples.clear()
        for name in COMPONENTS:
            registry.inc(f"engine.stall_slots.{name}", getattr(penalties, name))
        registry.inc("engine.stall_slots_total", penalties.total_slots)
        registry.inc("engine.instructions", counters.instructions)
        registry.inc("engine.blocks", counters.blocks)
        registry.inc("engine.right_probes", counters.right_probes)
        registry.inc("engine.right_misses", counters.right_misses)
        registry.inc("engine.wrong_probes", counters.wrong_probes)
        registry.inc("engine.wrong_misses", counters.wrong_misses)
        registry.inc("engine.right_fills", counters.right_fills)
        registry.inc("engine.wrong_fills", counters.wrong_fills)
        registry.inc("engine.wrong_instructions", counters.wrong_instructions)
        registry.inc("engine.inflight_merges", counters.inflight_merges)
        if self.interval_log:
            registry.inc("adaptive.intervals", len(self.interval_log))
            registry.inc("adaptive.switches", self.policy_switches)
            registry.inc("adaptive.shadow_runs", self.shadow_runs)
        self.unit.publish_metrics(registry)
        self.bus.publish_metrics(registry)
        self.station.publish_metrics(registry)
        if self.cache is not None:
            self.cache.publish_metrics(registry)
        if self.prefetcher is not None and self.cache is not None:
            self.prefetcher.publish_metrics(registry)
            stats = self.cache.stats
            issued = (
                self.prefetcher.issued
                + self.prefetcher.target_issued
                + self._carried_prefetches
            )
            wasted = (
                stats.prefetch_evicted_unused
                + self.cache.fresh_prefetch_count()
                + self.station.pending_prefetches()
                + self.station.overwritten_prefetch
            )
            registry.inc("prefetch.issued_total", issued)
            registry.inc("prefetch.useful", stats.prefetch_used)
            registry.inc("prefetch.late", counters.prefetch_late)
            registry.inc("prefetch.wasted", wasted)
        if self.streams is not None:
            registry.inc("stream.allocations", self.streams.allocations)
            registry.inc("stream.prefetches", self.streams.prefetches)
            registry.inc("stream.head_hits", self.streams.head_hits)
        if self.l2 is not None:
            registry.inc("l2.hits", self.l2.hits)
            registry.inc("l2.misses", self.l2.misses)
        if self.classifier is not None:
            counts = self.classifier.counts
            registry.inc("classify.both_miss", counts.both_miss)
            registry.inc("classify.spec_pollute", counts.spec_pollute)
            registry.inc("classify.spec_prefetch", counts.spec_prefetch)
            registry.inc("classify.wrong_path", counts.wrong_path)
            registry.inc("classify.optimistic_fills", counts.optimistic_fills)
            registry.inc("classify.oracle_fills", counts.oracle_fills)


def build_engine(
    program: Program,
    config: SimConfig,
    observer: Observer | None = None,
    stream=None,
    unit: BranchUnit | None = None,
):
    """Construct the engine backend for one cell.

    The backend-selection seam, mirroring ``build_branch_unit``: every
    simulation obtains its engine here.  With
    ``SimConfig.engine_backend="auto"`` (the default) the vectorized
    batch backend runs a cell exactly when it can: a recorded stream is
    given, the config is vector-eligible (see
    :func:`repro.core.vector.vector_eligible`), and no event sink is
    listening (cycle-level events only exist in the event loop).  Every
    other cell, and every ``"event"`` cell, runs on the event loop; the
    returned engine's ``backend`` attribute ("event" / "vector") records
    the choice.  Results and metrics are bit-identical either way
    (tests/core/test_engine_backends.py), so the choice adds nothing to
    the registry.

    Controller-driven schedules (``tournament`` / ``oracle``) need
    warm-state forks per interval, so the built event-loop engine is
    wrapped in :class:`~repro.core.adaptive.AdaptiveEngine`.

    A real-cache architectural-schedule cell given no stream records
    one (:func:`~repro.branch.stream.build_stream`) from the trace it
    runs, then replays it on the event loop: its predictor trains on
    the perfect-cache clock, which only a stream carries.

    *unit* is a live branch unit for the event loop to run behind (how
    :func:`~repro.branch.stream.build_stream` records a stream).
    """
    if config.engine_backend == "auto" and stream is not None:
        # Deferred import: repro.core.vector imports repro.branch.stream.
        from repro.core.vector import VectorEngine, vector_eligible

        if vector_eligible(config) and (
            observer is None or not observer.sink.enabled
        ):
            return VectorEngine(
                FetchEngine(program, config, observer=observer, stream=stream)
            )
    engine = FetchEngine(
        program, config, observer=observer, stream=stream, unit=unit
    )
    if engine.schedule.driver_required:
        # Deferred import: repro.core.adaptive imports this module's types.
        from repro.core.adaptive import AdaptiveEngine

        return AdaptiveEngine(engine)
    return engine


def simulate(
    program: Program,
    trace: Trace,
    config: SimConfig,
    warmup: int = 0,
    observer: Observer | None = None,
    stream=None,
) -> SimulationResult:
    """Build a fresh engine and run *trace* under *config*.

    *observer*, when given, receives typed events (if its sink is enabled)
    and the end-of-run metrics publication; it never changes the result.
    *stream*, when given, replays a recorded
    :class:`~repro.branch.stream.PredictionStream` instead of running the
    live predictor (bit-identical for replay-eligible configs), and —
    unless ``config.engine_backend`` is ``"event"`` — enables the
    vectorized batch backend for eligible cells (see :func:`build_engine`).  A
    real-cache architectural-schedule cell given none records its own.
    """
    return build_engine(program, config, observer=observer, stream=stream).run(
        trace, warmup_instructions=warmup
    )

"""Vectorized batch engine backend over replayed prediction streams.

The event-loop engine (:mod:`repro.core.engine`) dispatches one Python
bytecode sequence per basic block; with prediction-stream replay (PR 5)
the branch outcomes are already materialized as NumPy arrays, so for
replay-eligible cells the remaining interpreter overhead is pure
bookkeeping.  This module removes it.

Perfect-cache cells have no cache-timing feedback, so their whole
timeline is computed with the array kernels of
:mod:`repro.core.vector_kernels` (latency accumulation over whole runs
plus the speculation-depth gate).  Real-cache cells run through exact
scalar mirrors of the event-loop code over the lowering the event loop
itself uses, so no state here depends on the cache geometry:

* the right path is the :class:`~repro.core.lowering.FlatProbes` list
  (the ``FetchProgram`` plans' own ``(line, chunk, gate, tail)`` probe
  tuples in trace order), segmented at the replayed redirects; each
  redirect-free segment is one tight pass (``_scalar_span``) that
  finds a line's set inline — the paper's workloads
  redirect every dozen or so probes, far too often for a batch hit
  path to pay for its per-call array overhead;
* a recorded wrong-path walk is a slice of the stream's
  :class:`~repro.branch.stream.RecordedWalks`, the ``(line, n)`` chunks
  the event loop's replay unit serves too;
* while Resume's single-slot fill station is in flight, probes take
  the full per-probe station mirror (``_probe_scalar``).

The tag mirror uses :class:`~repro.cache.icache.InstructionCache`'s
way-major layout, so the span and walk loops serve every associativity:
a hit on a set's MRU way is one list index, and only an MRU miss scans
the lower ways.  Each slot holds the resident line number rather than
its tag: a line's set is ``line & set_mask``, so within a set equal
lines mean equal tags, and a probe needs no shift.

Every counter and every stall slot is reproduced **bit-identically**
(enforced by tests/core/test_engine_backends.py and the hypothesis
kernel suite).

Eligibility is stricter than replay eligibility: timing-coupled
front-end extensions (prefetchers, stream buffers, L2, multi-entry fill
stations, the lockstep miss classifier) interleave with the fetch clock
in ways that have no batch formulation here, so those cells keep the
event loop.  ``build_engine`` (repro.core.engine) makes the choice; the
published EXPERIMENTS numbers all run through the event loop and are
unchanged by construction.

The depth-gate model
--------------------

The event loop gates conditional-branch fetch on a FIFO of unresolved
branches, popping entries as the clock passes their resolve times.  The
vector backend keeps only the last ``max_unresolved`` *append* times
(``recent``): because resolve times are strictly increasing and pops
only happen at ``now <= t``, the queue is full at a gate point iff the
``max_unresolved``-th most recent resolve time still lies in the future
— i.e. ``len(recent) == depth and recent[0] > t``.  The same argument
makes ``recent[-1]`` equivalent to the live queue's tail for the
Pessimistic force-resolve guard: a popped tail satisfies
``recent[-1] <= t`` and can never raise the guard above ``t``.
"""

from __future__ import annotations

import numpy as np

from repro.branch.stream import recorded_walks, replay_eligible
from repro.branch.unit import BranchStats
from repro.cache.icache import lower_way_slot, move_to_mru
from repro.config import FetchPolicy, SimConfig
from repro.core.engine import check_run
from repro.core.lowering import flat_probes
from repro.core.results import EngineCounters, PenaltyAccumulator, SimulationResult
from repro.core.vector_kernels import (  # noqa: F401  (kernel re-exports)
    TraceArrays,
    accumulate_positions,
    depth_gate_positions,
    trace_arrays,
)
from repro.errors import SimulationError
from repro.isa import InstrKind
from repro.trace.event import Trace

_COND = int(InstrKind.COND_BRANCH)

#: Line-origin codes in the tag mirrors (the eligible cells never
#: prefetch, so LineOrigin.PREFETCH has no code here).
_ORG_RIGHT = 0
_ORG_WRONG = 1


def vector_eligible(config: SimConfig) -> bool:
    """Can *config* run on the vectorized backend (given a stream)?

    Replay eligibility is necessary (the backend consumes the recorded
    outcome arrays); on top of that, every timing-coupled front-end
    extension disqualifies the cell — those paths interleave with the
    fetch clock per probe and only exist in the event loop.  So does the
    per-interval policy machinery: the backend assumes one policy for
    the whole run and records no interval stats.
    """
    return (
        replay_eligible(config)
        and not config.prefetch
        and not config.target_prefetch
        and config.stream_buffers == 0
        and not config.classify
        and config.l2_size_bytes is None
        and config.fill_buffers == 1
        and config.policy_schedule == "static"
        and config.adaptive_interval is None
    )


# -- per-window statistics ---------------------------------------------------


class _Window:
    """One measurement window's counters (warmup or measured).

    Field-for-field what ``_reset_measurement`` zeroes in the event
    loop: the penalty accumulator, the engine counters, cache stats, bus
    stats and the station's install counter.
    """

    __slots__ = (
        "branch_full",
        "branch",
        "rt_icache",
        "wrong_icache",
        "bus",
        "force_resolve",
        "right_probes",
        "right_misses",
        "wrong_probes",
        "wrong_misses",
        "right_fills",
        "wrong_fills",
        "wrong_instructions",
        "inflight_merges",
        "probes",
        "hits",
        "misses",
        "fills",
        "evictions",
        "wrongpath_hits",
        "bus_requests",
        "bus_wait",
        "station_installed",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


# -- the backend -------------------------------------------------------------


class VectorEngine:
    """Vectorized drop-in for :class:`~repro.core.engine.FetchEngine`.

    Wraps a fully constructed event-loop engine (built for the same
    cell): the vectorized run writes its final component state back into
    the wrapped engine and delegates result construction and metric
    publication to it, so the reported :class:`SimulationResult` and
    metrics dictionary come from the exact same code path as the event
    loop's.  Construct only through ``build_engine`` (SIM011).
    """

    backend = "vector"
    # Kept at 0 for the benchmark's probe-path counters (no bulk path).
    probes_bulk = walk_probes_bulk = 0

    def __init__(self, inner) -> None:
        self.inner = inner
        self.program = inner.program
        self.config = inner.config
        config = inner.config
        if not vector_eligible(config):
            raise SimulationError(
                f"config is not vector-eligible ({config.describe()})"
            )
        self.observer = inner.observer
        self.unit = inner.unit
        self.cache = inner.cache
        self.bus = inner.bus
        self.station = inner.station
        self._stream = inner.unit.stream
        # Eligibility pins the schedule to static, so the inner engine's
        # per-interval policy is the run-wide policy (the schedule seam —
        # SIM012 — resolves it once at construction).
        self._policy = inner.policy
        self._penalty_slots = config.miss_penalty_slots
        self._decode_slots = config.decode_latency_slots
        self._resolve_slots = config.resolve_latency_slots
        self._depth = config.max_unresolved
        self._line_size = config.cache.line_size
        self._interleave = (
            None
            if config.bus_interleave_cycles is None
            else config.bus_interleave_cycles * config.issue_width
        )
        if self.cache is not None:
            # The tag mirror: InstructionCache's way-major layout (way k
            # of set s at slot k * n_sets + s, way 0 the MRU way, -1
            # empty) in plain lists — list indexing is ~3x faster per
            # probe than ndarray scalar indexing.  Slots hold whole line
            # numbers, which stand in for tags within a set.
            cache = self.cache
            self._assoc = cache.assoc
            self._set_mask = cache.set_mask
            self._n_sets = cache.n_sets
            self._lru_offset = cache._lru_offset
            self._lines_l = [-1] * cache._n_slots
            self._orgs_l = [0] * cache._n_slots
            self._columns = (self._lines_l, self._orgs_l)
        # Runtime state.
        self._t = 0
        self._busy_until = 0
        self._recent: list[int] = []
        self._has_station = False
        self._station_line = -1
        self._station_done = 0
        self._wrong_lines = False
        self._miss_fills = 0
        self._warm = _Window()
        self._meas = _Window()
        self._win = self._meas
        # Per-policy wrong-path walk behavior (None = outcome-dependent:
        # Decode fills only on a confirmed mispredict, outcome code 2).
        policy = self._policy
        if policy is FetchPolicy.OPTIMISTIC:
            self._walk_fills, self._walk_blocking = True, True
        elif policy is FetchPolicy.RESUME:
            self._walk_fills, self._walk_blocking = True, False
        elif policy is FetchPolicy.DECODE:
            self._walk_fills, self._walk_blocking = None, True
        else:  # Oracle / Pessimistic: probe ahead, never fill.
            self._walk_fills, self._walk_blocking = False, True
        self._walk_decode_slots = (
            self._decode_slots if policy is FetchPolicy.DECODE else 0
        )
        # Probe-path diagnostics (plain attributes, never published:
        # metric parity with the event loop is asserted).
        self.probes_scalar = 0
        self.walk_probes_scalar = 0

    # -- entry point ---------------------------------------------------------

    def run(self, trace: Trace, warmup_instructions: int = 0) -> SimulationResult:
        """Simulate *trace*; statistics restart after *warmup_instructions*.

        Same contract (and same validation) as the event loop's ``run``.
        """
        inner = self.inner
        check_run(inner.program, trace, warmup_instructions)
        self.unit.rewind()
        self._stream.require_trace(trace)
        ta = trace_arrays(trace)
        if warmup_instructions > 0:
            boundary_rec = int(
                np.searchsorted(ta.cum, warmup_instructions, side="left")
            )
        else:
            boundary_rec = 0
        n_events = int(ta.ev_rec.size)
        if len(self._stream.outcome) < n_events:
            # The event loop raises mid-run when its cursor overruns a
            # truncated stream; the batch backend knows the event count
            # up front and fails before simulating anything.
            raise SimulationError(
                f"prediction stream exhausted after "
                f"{len(self._stream.outcome)} records (trace/stream "
                f"mismatch for {self._stream.program_name!r})"
            )
        self._ev_outcome = np.asarray(self._stream.outcome)[:n_events]
        self._ev_cause = np.asarray(self._stream.cause)[:n_events]
        self._ev_penalty = np.asarray(self._stream.penalty)[:n_events]
        if self.cache is None:
            self._run_perfect(ta, boundary_rec)
        else:
            self._run_cached(trace, ta, boundary_rec)
        return self._finish(trace, ta, boundary_rec)

    # -- perfect cache --------------------------------------------------------

    def _run_perfect(self, ta: TraceArrays, boundary_rec: int) -> None:
        """Perfect-cache timeline: pure clock accumulation + depth gate."""
        redirect = self._ev_outcome != 0
        pen_per_rec = np.zeros(ta.n_records, dtype=np.int64)
        pen_per_rec[ta.ev_rec[redirect]] = self._ev_penalty[redirect]
        rec_start = accumulate_positions(ta.lengths, pen_per_rec)
        cond_rec = np.flatnonzero(ta.kinds == _COND)
        base = rec_start[cond_rec] + ta.lengths[cond_rec] - 1
        stalls, _, _ = depth_gate_positions(
            base, [], self._resolve_slots, self._depth
        )
        meas = self._meas
        meas.branch_full = int(stalls[cond_rec >= boundary_rec].sum())
        measured_ev = ta.ev_rec >= boundary_rec
        meas.branch = int(self._ev_penalty[redirect & measured_ev].sum())

    # -- real cache -----------------------------------------------------------

    def _run_cached(self, trace: Trace, ta: TraceArrays, boundary_rec: int) -> None:
        fp = flat_probes(trace, self.program.image, self._line_size)
        self._probes = fp.probes
        last_probe = fp.last_probe
        self._walks = recorded_walks(self._stream, self._line_size)
        red_ev = np.flatnonzero(self._ev_outcome != 0)
        red_probe = last_probe[ta.ev_rec[red_ev]]
        # Scalar-access copies of the per-event stream fields (list
        # indexing is ~3x faster than ndarray scalar indexing here).
        ev_penalty_l = self.unit._penalty
        ev_delay_l = self.unit._delay
        ev_outcome_l = self.unit._outcome
        ev_wstart_l = self.unit._wstart
        boundary_probe = (
            int(last_probe[boundary_rec - 1]) + 1 if boundary_rec > 0 else 0
        )
        pending_boundary = boundary_probe > 0
        self._win = self._warm if pending_boundary else self._meas
        red_probe_l = red_probe.tolist()
        red_ev_l = red_ev.tolist()
        n_red = len(red_probe_l)
        n_probes = len(self._probes)
        i = 0
        r = 0
        while i < n_probes:
            if pending_boundary and i == boundary_probe:
                self._win = self._meas
                pending_boundary = False
            seg_end = red_probe_l[r] + 1 if r < n_red else n_probes
            if pending_boundary and boundary_probe < seg_end:
                seg_end = boundary_probe
                redirect_here = False
            else:
                redirect_here = r < n_red
            # A wrong-path fill in flight (Resume only) takes the
            # per-probe station mirror until it installs; right-path
            # misses never create a station, so the rest of the segment
            # is one station-free span.
            while self._has_station and i < seg_end:
                i = self._probe_scalar(i)
            if i < seg_end:
                self._scalar_span(i, seg_end)
            i = seg_end
            if redirect_here:
                # Inlined _handle_redirect: the redirect block runs once
                # per control-transfer event — worth skipping two call
                # frames on the (common) walk-free redirects.
                e = red_ev_l[r]
                penalty = ev_penalty_l[e]
                t_br = self._t - 1
                self._win.branch += penalty
                window_start = t_br + 1 + ev_delay_l[e]
                window_end = t_br + 1 + penalty
                if ev_wstart_l[e] >= 0 and window_start < window_end:
                    self._t = self._walk(
                        e, window_start, window_end, ev_outcome_l[e]
                    )
                else:
                    self._t = window_end
                r += 1

    def _scalar_span(self, i: int, end: int) -> None:
        """Exact scalar mirror of the station-free right-path probe loop
        over [i, end) — one tight list-backed pass (the event-loop
        semantics of ``_fetch_right_line`` with an idle station: probes,
        depth gates, the conservative force-resolve guard, blocking
        fills).  Right-path misses never create a station, so the
        station-free precondition holds for the whole span.  Every
        associativity takes it: a hit on the MRU way (slot ``set``)
        stays inline, and only an MRU miss pays the strided scan of the
        lower ways and, on a lower-way hit or a fill, a strided
        rotation of the set."""
        lines_l = self._lines_l
        orgs_l = self._orgs_l
        set_mask = self._set_mask
        multiway = self._assoc > 1
        columns = self._columns
        n_sets = self._n_sets
        lru_offset = self._lru_offset
        t = self._t
        busy = self._busy_until
        recent = self._recent
        depth = self._depth
        resolve_slots = self._resolve_slots
        decode_slots = self._decode_slots
        duration = self._penalty_slots
        interleave = self._interleave
        policy = self._policy
        conservative = (
            policy is FetchPolicy.PESSIMISTIC or policy is FetchPolicy.DECODE
        )
        pessimistic = policy is FetchPolicy.PESSIMISTIC
        wrong_lines = self._wrong_lines
        n_probes = end - i
        n_hits = 0
        n_wrong_hits = 0
        n_evict = 0
        bus_wait = 0
        bus_pen = 0
        force_pen = 0
        full_pen = 0
        full = len(recent) == depth
        # One slice of the shared probe tuples instead of per-field list
        # subscripts (the span always runs to *end*, so no index is
        # needed, and `full` tracks the resolve window's saturation so
        # len() drops out of the steady state).
        for line, chunk, gated, _ in self._probes[i:end]:
            set_idx = line & set_mask
            if gated and full and recent[0] > t:
                full_pen += recent[0] - t
                t = recent[0]
            if lines_l[set_idx] == line:
                n_hits += 1
                if wrong_lines and orgs_l[set_idx]:
                    n_wrong_hits += 1
            elif (
                multiway
                and (slot := lower_way_slot(lines_l, set_idx, line, n_sets)) >= 0
            ):
                move_to_mru(columns, set_idx, slot, n_sets)
                n_hits += 1
                if wrong_lines and orgs_l[set_idx]:
                    n_wrong_hits += 1
            else:
                if conservative:
                    guard = t - 1 + decode_slots
                    if pessimistic and recent and recent[-1] > guard:
                        guard = recent[-1]
                    if guard > t:
                        force_pen += guard - t
                        t = guard
                start = busy if busy > t else t
                done = start + duration
                busy = done if interleave is None else start + interleave
                bus_wait += start - t
                if start > t:
                    bus_pen += start - t
                    t = start
                slot = set_idx + lru_offset
                if lines_l[slot] != -1:
                    n_evict += 1
                if multiway:
                    move_to_mru(columns, set_idx, slot, n_sets)
                lines_l[set_idx] = line
                orgs_l[set_idx] = 0
                t = done
            t += chunk
            if gated:
                recent.append(t - 1 + resolve_slots)
                if full:
                    del recent[0]
                else:
                    full = len(recent) == depth
        n_misses = n_probes - n_hits
        self._t = t
        self._busy_until = busy
        self._miss_fills += n_misses
        self.probes_scalar += n_probes
        win = self._win
        win.probes += n_probes
        win.hits += n_hits
        win.misses += n_misses
        win.right_probes += n_probes
        win.right_misses += n_misses
        win.right_fills += n_misses
        win.fills += n_misses
        win.evictions += n_evict
        win.wrongpath_hits += n_wrong_hits
        win.bus_requests += n_misses
        win.bus_wait += bus_wait
        win.bus += bus_pen
        win.rt_icache += n_misses * duration
        win.force_resolve += force_pen
        win.branch_full += full_pen

    def _probe_scalar(self, i: int) -> int:
        """One right-path probe while a wrong-path fill is in flight
        (Resume only) — the full ``_fetch_right_line`` mirror including
        station drain and in-flight merge."""
        win = self._win
        t = self._t
        recent = self._recent
        line, chunk, gated, _ = self._probes[i]
        if gated and len(recent) == self._depth and recent[0] > t:
            win.branch_full += recent[0] - t
            t = recent[0]
        if self._has_station and self._station_done <= t:
            self._install_station()
        hit = self._probe_hit_scalar(line)
        win.right_probes += 1
        self.probes_scalar += 1
        if not hit:
            win.right_misses += 1
            if self._has_station and self._station_line == line:
                done = self._station_done
                win.bus += done - t
                t = done
                self._install_station()
                win.inflight_merges += 1
            else:
                # Resume has no force-resolve guard.
                duration = self._penalty_slots
                busy = self._busy_until
                start = busy if busy > t else t
                done = start + duration
                self._busy_until = (
                    done if self._interleave is None else start + self._interleave
                )
                win.bus_requests += 1
                win.bus_wait += start - t
                if start > t:
                    win.bus += start - t
                    t = start
                win.rt_icache += duration
                self._miss_fills += 1
                t = done
                if self._has_station and self._station_done <= t:
                    self._install_station()
                self._fill(line, _ORG_RIGHT)
                win.right_fills += 1
        t += chunk
        if gated:
            recent.append(t - 1 + self._resolve_slots)
            if len(recent) > self._depth:
                del recent[0]
        self._t = t
        return i + 1

    # -- redirects and wrong paths --------------------------------------------

    def _walk(self, e: int, window_start: int, window_end: int, outcome: int) -> int:
        """Mirror of ``_walk_wrong_path`` over the recorded walk of
        stream event *e*; returns the right-path resume slot.

        The walk's ``(line, n)`` chunks were split once per (stream,
        line size) lowering, so a walk is a slice of one shared list.
        With no fill in flight, the leading stretch of MRU hits is pure
        accounting (a wrong-path hit moves no LRU state) and runs
        through a tight list loop; the first MRU miss (a lower-way hit,
        fills, station traffic) drops to the full scalar mirror.
        """
        # Decode walks always happen; fills only once the redirect is
        # known to be a mispredict (outcome code 2).
        fills = self._walk_fills
        if fills is None:
            fills = outcome == 2
        blocking = self._walk_blocking
        win = self._win
        cur = window_start
        walks = self._walks
        lines = walks.lines
        idx = walks.ev_off[e]
        hi = walks.ev_off[e + 1]
        duration = self._penalty_slots
        n_scalar = 0
        n_instr = 0
        lines_l = self._lines_l
        set_mask = self._set_mask
        if not self._has_station:
            # All-hit fast loop: probes that hit an idle-station cache
            # mutate nothing, so only local accumulators move until the
            # first MRU miss (or the window closes).
            for line, n in lines[idx:hi]:
                if cur >= window_end or lines_l[line & set_mask] != line:
                    break
                n_scalar += 1
                n_instr += n
                cur += n
                idx += 1
        multiway = self._assoc > 1
        n_sets = self._n_sets
        while idx < hi:
            if cur >= window_end:
                break
            if self._has_station and self._station_done <= cur:
                self._install_station()
            line, n = lines[idx]
            idx += 1
            n_scalar += 1
            set_idx = line & set_mask
            if lines_l[set_idx] == line or (
                multiway and lower_way_slot(lines_l, set_idx, line, n_sets) >= 0
            ):
                n_instr += n
                cur += n
                continue
            win.wrong_misses += 1
            if self._has_station and self._station_line == line:
                done = self._station_done
                if not blocking and done < window_end:
                    cur = done
                    self._install_station()
                    n_instr += n
                    cur += n
                    continue
                break
            if not fills:
                break
            if self._has_station:
                # Resume's single fill slot is busy: stop walking.
                break
            request_at = cur + self._walk_decode_slots
            busy = self._busy_until
            start = busy if busy > request_at else request_at
            done = start + duration
            self._busy_until = (
                done if self._interleave is None else start + self._interleave
            )
            win.bus_requests += 1
            win.bus_wait += start - request_at
            win.wrong_fills += 1
            self._miss_fills += 1
            if blocking:
                self._fill(line, _ORG_WRONG)
                self._wrong_lines = True
                if done >= window_end:
                    win.wrong_icache += done - window_end
                    win.wrong_probes += n_scalar
                    win.wrong_instructions += n_instr
                    self.walk_probes_scalar += n_scalar
                    return done
                cur = done
                n_instr += n
                cur += n
                continue
            if done <= window_end:
                self._fill(line, _ORG_WRONG)
                self._wrong_lines = True
                cur = done
                n_instr += n
                cur += n
                continue
            self._station_line = line
            self._station_done = done
            self._has_station = True
            break
        win.wrong_probes += n_scalar
        win.wrong_instructions += n_instr
        self.walk_probes_scalar += n_scalar
        return window_end

    def _install_station(self) -> None:
        self._fill(self._station_line, _ORG_WRONG)
        self._wrong_lines = True
        self._win.station_installed += 1
        self._has_station = False

    # -- tag-mirror primitives ------------------------------------------------

    def _probe_hit_scalar(self, line: int) -> bool:
        win = self._win
        win.probes += 1
        set_idx = line & self._set_mask
        lines_l = self._lines_l
        if lines_l[set_idx] != line:
            slot = (
                lower_way_slot(lines_l, set_idx, line, self._n_sets)
                if self._assoc > 1
                else -1
            )
            if slot < 0:
                win.misses += 1
                return False
            move_to_mru(self._columns, set_idx, slot, self._n_sets)
        win.hits += 1
        if self._orgs_l[set_idx]:
            win.wrongpath_hits += 1
        return True

    def _fill(self, line: int, origin: int) -> None:
        win = self._win
        win.fills += 1
        set_idx = line & self._set_mask
        lines_l = self._lines_l
        if lines_l[set_idx] != line:
            # A resident lower way is refreshed; otherwise the LRU way
            # (empty or evicted) is reused.
            slot = (
                lower_way_slot(lines_l, set_idx, line, self._n_sets)
                if self._assoc > 1
                else -1
            )
            if slot < 0:
                slot = set_idx + self._lru_offset
                if lines_l[slot] != -1:
                    win.evictions += 1
            if slot != set_idx:
                move_to_mru(self._columns, set_idx, slot, self._n_sets)
        lines_l[set_idx] = line
        self._orgs_l[set_idx] = origin

    # -- result construction ---------------------------------------------------

    def _finish(self, trace: Trace, ta: TraceArrays, boundary_rec: int) -> SimulationResult:
        """Write the measured window back into the wrapped event-loop
        engine and delegate result/metrics construction to it."""
        inner = self.inner
        meas = self._meas
        inner.penalties = PenaltyAccumulator(
            branch_full=meas.branch_full,
            branch=meas.branch,
            rt_icache=meas.rt_icache,
            wrong_icache=meas.wrong_icache,
            bus=meas.bus,
            force_resolve=meas.force_resolve,
        )
        warm_instructions = int(ta.cum[boundary_rec - 1]) if boundary_rec > 0 else 0
        inner.counters = EngineCounters(
            instructions=int(ta.cum[-1]) - warm_instructions,
            blocks=ta.n_records - boundary_rec,
            right_probes=meas.right_probes,
            right_misses=meas.right_misses,
            wrong_probes=meas.wrong_probes,
            wrong_misses=meas.wrong_misses,
            right_fills=meas.right_fills,
            wrong_fills=meas.wrong_fills,
            wrong_instructions=meas.wrong_instructions,
            inflight_merges=meas.inflight_merges,
        )
        inner.unit.stats = self._branch_stats(ta, boundary_rec)
        if inner.cache is not None:
            stats = inner.cache.stats
            stats.probes = meas.probes
            stats.hits = meas.hits
            stats.misses = meas.misses
            stats.fills = meas.fills
            stats.evictions = meas.evictions
            stats.wrongpath_hits = meas.wrongpath_hits
        inner.bus.requests = meas.bus_requests
        inner.bus.busy_wait_slots = meas.bus_wait
        inner.station.installed = meas.station_installed
        if inner._miss_durations is not None:
            # Every fill takes the flat miss penalty (no L2 in eligible
            # cells); warmup observations are included, as in the event
            # loop (the histograms survive _reset_measurement).
            inner._miss_durations = [self._penalty_slots] * self._miss_fills
            redirect = self._ev_outcome != 0
            inner._redirect_penalties = [
                int(p) for p in self._ev_penalty[redirect]
            ]
        return inner._build_result(trace)

    def _branch_stats(self, ta: TraceArrays, boundary_rec: int) -> BranchStats:
        """Reconstruct the measured-window BranchStats from the stream."""
        first = int(np.searchsorted(ta.ev_rec, boundary_rec, side="left"))
        kinds = ta.kinds[ta.ev_rec[first:]]
        outcome = self._ev_outcome[first:]
        cause = self._ev_cause[first:]
        penalty = self._ev_penalty[first:]
        conditional = int((kinds == _COND).sum())
        return BranchStats(
            conditional=conditional,
            unconditional=int(kinds.size - conditional),
            correct=int((outcome == 0).sum()),
            pht_mispredicts=int((cause == 2).sum()),
            btb_misfetches=int((cause == 1).sum()),
            btb_mispredicts=int((cause == 3).sum()),
            penalty_slots_by_cause={
                "btb_misfetch": int(penalty[cause == 1].sum()),
                "pht_mispredict": int(penalty[cause == 2].sum()),
                "btb_mispredict": int(penalty[cause == 3].sum()),
            },
        )

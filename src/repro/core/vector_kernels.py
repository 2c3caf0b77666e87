"""NumPy kernels and lowered array state for the vectorized backend.

:mod:`repro.core.vector` is two things: an engine (``VectorEngine``,
the bit-identical mirror of the event loop) and the pure array
machinery it runs on.  This module is the machinery:

* **kernels** — pure array transforms, each with a straight-Python
  reference in ``tests/properties/test_vector_kernels.py``: set/tag
  arithmetic (:func:`split_sets`), run-to-probe expansion
  (:func:`lines_from_runs_arrays`, :func:`expand_runs`), and the
  perfect-cache timeline's speculation-depth gating
  (:func:`depth_gate_positions`) and segment positioning
  (:func:`accumulate_positions`);

* **lowered state** — the per-trace / per-line-size / per-geometry
  array forms the engine consumes (:class:`TraceArrays`,
  :class:`ProbeArrays`, :class:`WalkArrays`, and their set/tag splits
  :class:`ProbeSplit` / :class:`WalkSplit`), obtained only through the
  memoized factories :func:`trace_arrays`, :func:`probe_arrays`,
  :func:`walk_arrays`, :func:`probe_split` and :func:`walk_split`.
  The lowered state is pure read-only data, so one lowering serves
  every engine (and every ``AdaptiveEngine`` fork) simulating the same
  trace — simlint SIM011 flags direct constructions, exactly as it
  does for the engines themselves.

The lowering itself is NumPy; what the engine's per-probe scalar
mirrors read are plain-list forms (list indexing is ~3x faster than
ndarray scalar indexing in per-probe Python code).
"""

from __future__ import annotations

import numpy as np

from repro.core.lowering import memo_get
from repro.isa import INSTRUCTION_SIZE, InstrKind
from repro.trace.event import Trace

_PLAIN = int(InstrKind.PLAIN)
_COND = int(InstrKind.COND_BRANCH)


# -- kernels -----------------------------------------------------------------


def split_sets(lines, set_mask: int, set_shift: int):
    """Set-index / tag split of an array of line numbers."""
    lines = np.asarray(lines, dtype=np.int64)
    return lines & set_mask, lines >> set_shift


def lines_from_runs_arrays(run_pc, run_n, line_size: int):
    """Vectorized twin of :func:`repro.core.wrongpath.iter_lines_from_runs`.

    Splits ``(start_addr, n)`` run arrays into flat ``(line, chunk)``
    probe arrays in one pass — the same address arithmetic as the
    iterator, batch form (the vector backend lowers a stream's recorded
    walks once per line size instead of re-splitting per redirect).
    Returns ``(line, chunk, run_off)`` where ``run_off[i] :
    run_off[i + 1]`` indexes run *i*'s probes.
    """
    run_pc = np.asarray(run_pc, dtype=np.int64)
    run_n = np.asarray(run_n, dtype=np.int64)
    shift = line_size.bit_length() - 1
    per_line = line_size // INSTRUCTION_SIZE
    first = run_pc >> shift
    last = (run_pc + (run_n - 1) * INSTRUCTION_SIZE) >> shift
    count = last - first + 1
    total = int(count.sum())
    run_off = np.zeros(run_pc.size + 1, dtype=np.int64)
    np.cumsum(count, out=run_off[1:])
    probe_run = np.repeat(np.arange(run_pc.size, dtype=np.int64), count)
    within = np.arange(total, dtype=np.int64) - run_off[probe_run]
    line = first[probe_run] + within
    idx0 = run_pc // INSTRUCTION_SIZE
    lo = np.maximum(line * per_line, idx0[probe_run])
    hi = np.minimum((line + 1) * per_line, idx0[probe_run] + run_n[probe_run])
    return line, hi - lo, run_off


def expand_runs(run_pc, run_n, line_size: int):
    """Expand instruction runs into per-line probes.

    Mirrors the event loop's per-line split (``FetchProgram``): a run of *n*
    instructions starting at *pc* probes each cache line it touches
    once, issuing ``min(per_line - idx % per_line, remaining)``
    instructions from it.  Returns ``(probe_run, probe_line,
    probe_chunk)`` with one entry per probe.
    """
    line, chunk, run_off = lines_from_runs_arrays(run_pc, run_n, line_size)
    counts = run_off[1:] - run_off[:-1]
    probe_run = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return probe_run, line, chunk


def depth_gate_positions(base, recent, resolve_slots: int, depth: int):
    """Gate a sequence of conditional-branch fetch positions.

    ``base`` holds the stall-free issue positions of consecutive gated
    terminators (every earlier stall shifts all later positions equally,
    which holds whenever no other timing feedback occurs between them —
    all-hit spans and perfect-cache runs).  ``recent`` seeds the window
    of outstanding resolve times.  Returns ``(stalls, issue, recent')``:
    per-branch stall slots, post-gate issue positions, and the resolve
    window to carry forward.
    """
    base = np.asarray(base, dtype=np.int64)
    n = base.size
    window = list(recent)[-depth:] if depth > 0 else []
    stalls = np.zeros(n, dtype=np.int64)
    if n == 0:
        return stalls, base.copy(), window
    m = len(window)
    if n >= 8:
        # No-stall fast path: if nothing stalls, the resolve times are
        # exactly recent ++ (base + resolve_slots), and branch k gates on
        # the depth-th previous resolve.  If all those lie at or before
        # base[k], no gate ever fires (induction over k) and the whole
        # call collapses to array ops.
        resolves = np.concatenate(
            [np.asarray(window, dtype=np.int64), base + resolve_slots]
        )
        back = np.arange(n) + m - depth
        valid = back >= 0
        if not valid.any() or bool(np.all(resolves[back[valid]] <= base[valid])):
            tail = resolves[-depth:] if depth > 0 else resolves[:0]
            return stalls, base.copy(), [int(v) for v in tail]
    issue = np.empty(n, dtype=np.int64)
    shift = 0
    for k in range(n):
        t = int(base[k]) + shift
        if len(window) == depth and window[0] > t:
            stall = window[0] - t
            stalls[k] = stall
            shift += stall
            t = window[0]
        issue[k] = t
        window.append(t + resolve_slots)
        if len(window) > depth:
            del window[0]
    return stalls, issue, window


def accumulate_positions(lengths, extra):
    """Start positions of consecutive segments: exclusive cumulative sum
    of per-segment durations (``lengths + extra``)."""
    total = np.asarray(lengths, dtype=np.int64) + np.asarray(extra, dtype=np.int64)
    return np.cumsum(total) - total


# -- lowered state (memoized) ------------------------------------------------
#
# The record arrays depend only on the trace; the probe stream
# additionally depends on the line size; the walk probes additionally
# depend on the stream.  All share the identity-keyed memo of
# :mod:`repro.core.lowering`.


class TraceArrays:
    """Per-record arrays of one trace (line-size independent)."""

    __slots__ = ("starts", "lengths", "kinds", "cum", "ev_rec", "n_records")

    def __init__(self, trace: Trace) -> None:
        n = trace.n_blocks
        records = trace.records
        self.starts = np.fromiter((r[0] for r in records), np.int64, n)
        self.lengths = np.fromiter((r[1] for r in records), np.int64, n)
        self.kinds = np.fromiter((r[2] for r in records), np.int64, n)
        self.cum = np.cumsum(self.lengths)
        self.ev_rec = np.flatnonzero(self.kinds != _PLAIN)
        self.n_records = n


class ProbeArrays:
    """The right-path probe stream of one trace at one line size.

    One entry per cache-line access the event loop would make: the
    ``line`` array (split per geometry by :class:`ProbeSplit`), the
    scalar-mirror list forms (``*_l``), and ``last_probe``, each
    record's last probe index.
    """

    __slots__ = ("line", "last_probe", "n_probes", "line_l", "chunk_l", "gate_l")

    def __init__(self, ta: TraceArrays, line_size: int) -> None:
        is_cond = ta.kinds == _COND
        prefix_n = np.where(is_cond, ta.lengths - 1, ta.lengths)
        has_prefix = prefix_n > 0
        runs_per_rec = has_prefix.astype(np.int64) + is_cond
        run_off = np.cumsum(runs_per_rec) - runs_per_rec
        total_runs = int(runs_per_rec.sum())
        run_pc = np.zeros(total_runs, dtype=np.int64)
        run_n = np.zeros(total_runs, dtype=np.int64)
        run_gate = np.zeros(total_runs, dtype=bool)
        prefix_at = run_off[has_prefix]
        run_pc[prefix_at] = ta.starts[has_prefix]
        run_n[prefix_at] = prefix_n[has_prefix]
        term_addr = ta.starts + (ta.lengths - 1) * INSTRUCTION_SIZE
        term_at = (run_off + has_prefix)[is_cond]
        run_pc[term_at] = term_addr[is_cond]
        run_n[term_at] = 1
        run_gate[term_at] = True
        run_rec = np.repeat(np.arange(ta.n_records, dtype=np.int64), runs_per_rec)
        probe_run, self.line, chunk = expand_runs(run_pc, run_n, line_size)
        probe_rec = run_rec[probe_run]
        probes_per_rec = np.bincount(probe_rec, minlength=ta.n_records)
        self.last_probe = np.cumsum(probes_per_rec) - 1
        self.n_probes = int(self.line.size)
        self.line_l = self.line.tolist()
        self.chunk_l = chunk.tolist()
        self.gate_l = run_gate[probe_run].tolist()


class WalkArrays:
    """Every recorded wrong-path walk of one stream, pre-split at one
    line size.

    ``ev_off_l[e] : ev_off_l[e + 1]`` indexes stream event *e*'s line
    probes in the flat ``line_l``/``chunk_l`` lists — the lowering the
    scalar walker previously re-derived per redirect through
    ``iter_lines_from_runs``.
    """

    __slots__ = ("line", "ev_off_l", "line_l", "chunk_l", "n_events")

    def __init__(self, wp_pc, wp_n, wp_off, line_size: int) -> None:
        self.line, chunk, run_off = lines_from_runs_arrays(
            wp_pc, wp_n, line_size
        )
        ev_off = run_off[np.asarray(wp_off, dtype=np.int64)]
        self.ev_off_l = ev_off.tolist()
        self.line_l = self.line.tolist()
        self.chunk_l = chunk.tolist()
        self.n_events = len(self.ev_off_l) - 1


class ProbeSplit:
    """The right-path probe stream split for one cache geometry.

    The set/tag split depends on the cache's set count, so it cannot
    live in :class:`ProbeArrays` (keyed by line size only); memoizing it
    separately keeps a policy sweep at fixed geometry from re-deriving
    it per engine.  ``tuples`` pre-zips ``(set, tag, chunk, gate)`` per
    probe: the scalar mirror iterates one slice of prebuilt tuples
    instead of subscripting four lists per probe.
    """

    __slots__ = ("tuples",)

    def __init__(self, pa: ProbeArrays, set_mask: int, set_shift: int) -> None:
        sets, tags = split_sets(pa.line, set_mask, set_shift)
        self.tuples = list(zip(sets.tolist(), tags.tolist(), pa.chunk_l, pa.gate_l))


class WalkSplit:
    """The wrong-path walk probes split for one cache geometry.

    ``tuples`` pre-zips ``(set, tag, chunk)`` per walk probe for the
    scalar walker's all-hit fast loop.
    """

    __slots__ = ("tuples",)

    def __init__(self, wa: WalkArrays, set_mask: int, set_shift: int) -> None:
        sets, tags = split_sets(wa.line, set_mask, set_shift)
        self.tuples = list(zip(sets.tolist(), tags.tolist(), wa.chunk_l))


_trace_memo: dict[int, TraceArrays] = {}
_probe_memo: dict[tuple, ProbeArrays] = {}
_walk_memo: dict[tuple, WalkArrays] = {}
_probe_split_memo: dict[tuple, ProbeSplit] = {}
_walk_split_memo: dict[tuple, WalkSplit] = {}


def trace_arrays(trace: Trace) -> TraceArrays:
    """The (memoized) per-record arrays of *trace*."""
    return memo_get(
        _trace_memo, (trace,), id(trace), "trace", lambda: TraceArrays(trace)
    )


def probe_arrays(trace: Trace, line_size: int) -> ProbeArrays:
    """The (memoized) right-path probe stream of *trace* at *line_size*."""
    ta = trace_arrays(trace)
    return memo_get(
        _probe_memo,
        (trace,),
        (id(trace), line_size),
        "probe",
        lambda: ProbeArrays(ta, line_size),
    )


def walk_arrays(stream, line_size: int) -> WalkArrays:
    """The (memoized) lowered wrong-path walks of *stream* at *line_size*."""
    return memo_get(
        _walk_memo,
        (stream,),
        (id(stream), line_size),
        "walk",
        lambda: WalkArrays(stream.wp_pc, stream.wp_n, stream.wp_off, line_size),
    )


def probe_split(
    trace: Trace, line_size: int, set_mask: int, set_shift: int
) -> ProbeSplit:
    """The (memoized) set/tag split of *trace*'s probe stream for one
    cache geometry."""
    pa = probe_arrays(trace, line_size)
    return memo_get(
        _probe_split_memo,
        (trace,),
        (id(trace), line_size, set_mask, set_shift),
        "probe_split",
        lambda: ProbeSplit(pa, set_mask, set_shift),
    )


def walk_split(
    stream, line_size: int, set_mask: int, set_shift: int
) -> WalkSplit:
    """The (memoized) set/tag split of *stream*'s walk probes for one
    cache geometry."""
    wa = walk_arrays(stream, line_size)
    return memo_get(
        _walk_split_memo,
        (stream,),
        (id(stream), line_size, set_mask, set_shift),
        "walk_split",
        lambda: WalkSplit(wa, set_mask, set_shift),
    )

"""NumPy kernels and per-record arrays for the vectorized backend.

:mod:`repro.core.vector` is two things: an engine (``VectorEngine``,
the bit-identical mirror of the event loop) and the array machinery its
perfect-cache path runs on.  This module is that machinery:

* **kernels** — pure array transforms, each with a straight-Python
  reference in ``tests/properties/test_vector_kernels.py``: the
  perfect-cache timeline's speculation-depth gating
  (:func:`depth_gate_positions`) and segment positioning
  (:func:`accumulate_positions`);

* **per-record arrays** — :class:`TraceArrays`, obtained only through
  the memoized factory :func:`trace_arrays`.  It is pure read-only
  data, so one lowering serves every engine simulating the same trace —
  simlint SIM011 flags direct constructions, exactly as it does for the
  engines themselves.

The real-cache mirror reads no lowering of its own: it walks the event
loop's probe tuples (:func:`repro.core.lowering.flat_probes`) and the
stream's split walks (:func:`repro.branch.stream.recorded_walks`).
"""

from __future__ import annotations

import numpy as np

from repro.core.lowering import memo_get
from repro.isa import InstrKind
from repro.trace.event import Trace

_PLAIN = int(InstrKind.PLAIN)


# -- kernels -----------------------------------------------------------------


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


# -- per-record arrays (memoized) ---------------------------------------------
#
# The record arrays depend only on the trace; they share the
# identity-keyed memo of :mod:`repro.core.lowering`.


class TraceArrays:
    """Per-record arrays of one trace (line-size independent)."""

    __slots__ = ("lengths", "kinds", "cum", "ev_rec", "n_records")

    def __init__(self, trace: Trace) -> None:
        n = trace.n_blocks
        records = trace.records
        self.lengths = np.fromiter((r[1] for r in records), np.int64, n)
        self.kinds = np.fromiter((r[2] for r in records), np.int64, n)
        self.cum = np.cumsum(self.lengths)
        self.ev_rec = np.flatnonzero(self.kinds != _PLAIN)
        self.n_records = n


_trace_memo: dict[int, TraceArrays] = {}


def trace_arrays(trace: Trace) -> TraceArrays:
    """The (memoized) per-record arrays of *trace*."""
    return memo_get(
        _trace_memo, (trace,), id(trace), "trace", lambda: TraceArrays(trace)
    )

"""Property-based tests for the vector backend's NumPy kernels.

Each kernel in :mod:`repro.core.vector_kernels` is checked against a
straight-Python reference that does the same work one element (or one
access) at a time.  The references are deliberately naive — the point is
that the vectorized formulation agrees with the obvious sequential
semantics on arbitrary inputs, not just the traces the differential
harness happens to produce.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vector import accumulate_positions, depth_gate_positions


def _gate_reference(base, recent, resolve_slots, depth):
    window = list(recent)[-depth:] if depth > 0 else []
    stalls, issue, shift = [], [], 0
    for b in base:
        t = b + shift
        if len(window) == depth and window[0] > t:
            stall = window[0] - t
            shift += stall
            t = window[0]
        else:
            stall = 0
        stalls.append(stall)
        issue.append(t)
        window.append(t + resolve_slots)
        if len(window) > depth:
            del window[0]
    return stalls, issue, window


@given(
    gaps=st.lists(st.integers(0, 40), min_size=0, max_size=24),
    recent=st.lists(st.integers(0, 30), min_size=0, max_size=4),
    resolve_slots=st.integers(1, 24),
    depth=st.integers(1, 4),
)
@settings(max_examples=200)
def test_depth_gate_positions_matches_sequential_gate(
    gaps, recent, resolve_slots, depth
):
    # Monotone issue positions (gaps accumulate), like real segments; the
    # size range crosses the n >= 8 threshold so both the vectorized
    # no-stall fast path and the scalar loop are exercised.
    base = np.cumsum([0, *gaps])[1:] if gaps else np.array([], dtype=np.int64)
    recent = sorted(recent)
    stalls, issue, window = depth_gate_positions(
        base, recent, resolve_slots, depth
    )
    ref_stalls, ref_issue, ref_window = _gate_reference(
        base.tolist(), recent, resolve_slots, depth
    )
    assert stalls.tolist() == ref_stalls
    assert issue.tolist() == ref_issue
    assert [int(v) for v in window] == ref_window


@given(
    lengths=st.lists(st.integers(0, 50), min_size=0, max_size=20),
    extras=st.integers(0, 30),
)
def test_accumulate_positions_matches_running_sum(lengths, extras):
    extra = [extras] * len(lengths)
    starts = accumulate_positions(lengths, extra)
    pos, expected = 0, []
    for length, e in zip(lengths, extra):
        expected.append(pos)
        pos += length + e
    assert starts.tolist() == expected


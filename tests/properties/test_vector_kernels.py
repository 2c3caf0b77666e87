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

from repro.core.vector import (
    accumulate_positions,
    depth_gate_positions,
    expand_runs,
    split_sets,
)
from repro.core.vector_kernels import lines_from_runs_arrays
from repro.core.wrongpath import iter_lines_from_runs
from repro.isa import INSTRUCTION_SIZE

lines_arrays = st.lists(st.integers(0, 2**20), min_size=0, max_size=64)


@given(
    lines=lines_arrays,
    set_bits=st.integers(0, 10),
)
def test_split_sets_matches_divmod(lines, set_bits):
    n_sets = 1 << set_bits
    sets, tags = split_sets(lines, n_sets - 1, set_bits)
    for line, s, t in zip(lines, sets.tolist(), tags.tolist()):
        assert s == line % n_sets
        assert t == line // n_sets


@st.composite
def run_lists(draw):
    n = draw(st.integers(0, 12))
    pcs, lens = [], []
    for _ in range(n):
        pcs.append(draw(st.integers(0, 4096)) * INSTRUCTION_SIZE)
        lens.append(draw(st.integers(1, 40)))
    return pcs, lens


@given(runs=run_lists(), line_size=st.sampled_from([16, 32, 64]))
def test_expand_runs_matches_issue_run_walk(runs, line_size):
    run_pc, run_n = runs
    probe_run, probe_line, probe_chunk = expand_runs(run_pc, run_n, line_size)
    per_line = line_size // INSTRUCTION_SIZE
    expected = []
    for i, (pc, n) in enumerate(zip(run_pc, run_n)):
        # Reference: the event loop's _issue_run chunking, one line at a
        # time.
        idx = pc // INSTRUCTION_SIZE
        remaining = n
        while remaining > 0:
            chunk = min(per_line - idx % per_line, remaining)
            expected.append((i, idx * INSTRUCTION_SIZE // line_size, chunk))
            idx += chunk
            remaining -= chunk
    got = list(
        zip(probe_run.tolist(), probe_line.tolist(), probe_chunk.tolist())
    )
    assert got == expected


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


@given(runs=run_lists(), line_size=st.sampled_from([16, 32, 64]))
def test_lines_from_runs_arrays_matches_iterator(runs, line_size):
    run_pc, run_n = runs
    line, chunk, run_off = lines_from_runs_arrays(run_pc, run_n, line_size)
    expected = list(iter_lines_from_runs(zip(run_pc, run_n), line_size))
    assert list(zip(line.tolist(), chunk.tolist())) == expected
    # run_off partitions the flat probes back into their source runs.
    assert run_off[0] == 0 and run_off[-1] == line.size
    for i, (pc, n) in enumerate(zip(run_pc, run_n)):
        span = slice(int(run_off[i]), int(run_off[i + 1]))
        assert int(np.sum(chunk[span])) == n
        per_run = list(
            iter_lines_from_runs([(pc, n)], line_size)
        )
        assert list(zip(line[span].tolist(), chunk[span].tolist())) == per_run

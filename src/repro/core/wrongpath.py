"""Static wrong-path enumeration.

When the front end goes down a wrong path (mispredict or misfetch), the
addresses it fetches are determined by the *static* code image plus the
*current* predictor state: at each control transfer on the wrong path the
machine follows its own (speculative, read-only) prediction.

:func:`iter_wrong_path_runs` lists the straight-line ``(pc, n)``
segments such a walk touches; :func:`iter_lines_from_runs` splits any
segment sequence at cache-line boundaries; and
:func:`iter_wrong_path_lines` composes the two, leaving all timing/stall
decisions to the engine.  The split keeps the walker purely functional
and unit-testable, and lets prediction-stream replay
(:mod:`repro.branch.stream`) record walks once in line-size-independent
form and re-split them for each swept cache geometry.

All three return lists, built eagerly.  That is sound because nothing
mutates the predictor while the engine consumes a walk, and it saves a
generator resume per chunk on the engine's redirect path.

Modelling notes (see DESIGN.md §4):

* wrong-path predictor probes use :meth:`BranchUnit.peek_*` so they cannot
  perturb predictor state (keeps runs comparable across policies);
* a direct transfer's static target is followed as soon as the transfer is
  reached (the real machine would only redirect at decode on a BTB miss;
  within a <= 4-cycle window the difference is second-order);
* dynamic-target transfers (returns, indirect calls) follow the BTB target
  when present, otherwise the walk continues sequentially (exactly what
  pre-decode hardware does);
* leaving the code image ends the walk.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.branch.unit import BranchUnit
from repro.isa import INSTRUCTION_SIZE, InstrKind
from repro.program.image import CodeImage

_COND = int(InstrKind.COND_BRANCH)
_JUMP = int(InstrKind.JUMP)
_CALL = int(InstrKind.CALL)
_RETURN = int(InstrKind.RETURN)
_ICALL = int(InstrKind.INDIRECT_CALL)


def iter_wrong_path_runs(
    image: CodeImage,
    unit: BranchUnit,
    start_pc: int,
    max_instructions: int,
) -> list[tuple[int, int]]:
    """List the ``(start_addr, n_instructions)`` straight-line runs of a
    wrong-path walk.

    The walk starts at *start_pc* and fetches at most *max_instructions*
    instructions; each run ends at a control transfer (inclusive) or at
    the instruction budget.  Runs are independent of any cache geometry —
    split them with :func:`iter_lines_from_runs`.  This is the only place
    that follows control transfers on the wrong path.
    """
    runs: list[tuple[int, int]] = []
    if max_instructions <= 0:
        return runs
    base = image.base
    n_image = image.n_instructions
    kinds = image.kinds_list
    targets = image.targets_list
    next_ctrl = image.next_ctrl_list

    pc = start_pc
    remaining = max_instructions
    while remaining > 0:
        offset = pc - base
        if offset < 0 or offset % INSTRUCTION_SIZE:
            return runs
        idx = offset // INSTRUCTION_SIZE
        if idx >= n_image:
            return runs
        ctrl = next_ctrl[idx]
        run = (n_image if ctrl >= n_image else ctrl + 1) - idx
        take = run if run < remaining else remaining
        runs.append((base + idx * INSTRUCTION_SIZE, take))
        remaining -= take
        if take < run or ctrl >= n_image:
            return runs
        # Follow the speculative prediction at the control transfer.
        kind = kinds[ctrl]
        ctrl_addr = base + ctrl * INSTRUCTION_SIZE
        fall = ctrl_addr + INSTRUCTION_SIZE
        if kind == _COND:
            if unit.peek_direction(ctrl_addr):
                pc = targets[ctrl]
            else:
                pc = fall
        elif kind == _JUMP or kind == _CALL:
            pc = targets[ctrl]
        elif kind == _RETURN or kind == _ICALL:
            if kind == _RETURN and unit.ras is not None:
                predicted = unit.ras.peek()
            else:
                predicted = unit.peek_target(ctrl_addr)
            if predicted is None:
                predicted = unit.peek_target(ctrl_addr)
            pc = predicted if predicted is not None else fall
        else:  # pragma: no cover - images contain only the kinds above
            return runs
    return runs


def iter_lines_from_runs(
    runs: Iterable[tuple[int, int]],
    line_size: int,
) -> list[tuple[int, int]]:
    """Split ``(start_addr, n)`` runs into a list of ``(line_number, n)``
    chunks.

    Pure address arithmetic: the same recorded run sequence can be
    re-split for any swept line size.
    """
    line_shift = line_size.bit_length() - 1
    per_line = line_size // INSTRUCTION_SIZE
    chunks: list[tuple[int, int]] = []
    for start_addr, count in runs:
        pos = start_addr // INSTRUCTION_SIZE
        left = count
        while left > 0:
            addr = pos * INSTRUCTION_SIZE
            line = addr >> line_shift
            in_line = per_line - pos % per_line
            chunk = in_line if in_line < left else left
            chunks.append((line, chunk))
            pos += chunk
            left -= chunk
    return chunks


def lines_from_runs_arrays(run_pc, run_n, line_size: int):
    """Vectorized twin of :func:`iter_lines_from_runs`.

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


def iter_wrong_path_lines(
    image: CodeImage,
    unit: BranchUnit,
    start_pc: int,
    max_instructions: int,
    line_size: int,
) -> list[tuple[int, int]]:
    """List the ``(line_number, n_instructions)`` chunks of a wrong-path
    walk.

    The walk starts at *start_pc* and fetches at most *max_instructions*
    instructions, splitting each straight-line run at cache-line
    boundaries.  The caller (engine) decides how many of the listed
    instructions actually fit in its redirect window.
    """
    return iter_lines_from_runs(
        iter_wrong_path_runs(image, unit, start_pc, max_instructions),
        line_size,
    )

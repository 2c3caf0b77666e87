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

All three return lists, built eagerly: nothing mutates the predictor
while the engine consumes a walk.  Walks are assembled from memoized
static segments (:func:`_walk`), so a live walk consults the predictor
only at the transfers it picks.  The engine walks through
:func:`walk_segments` with the segment memo in hand, and takes a
one-segment walk's memoized tuple instead of a copy.

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

from collections.abc import Iterable, Sequence

from repro.branch.unit import BranchUnit
from repro.core.lowering import memo_get
from repro.isa import INSTRUCTION_SIZE, InstrKind
from repro.program.image import CodeImage

_COND = int(InstrKind.COND_BRANCH)
_JUMP = int(InstrKind.JUMP)
_CALL = int(InstrKind.CALL)
_RETURN = int(InstrKind.RETURN)
_END = -1


def _segment(
    image: CodeImage, pc: int, budget: int, line_size: int | None
) -> tuple:
    """The predictor-independent stretch of a walk from *pc* with
    *budget* instructions left, through static jumps and calls up to the
    end of the walk or a transfer the predictor picks.

    Returns ``(pieces, kind, ctrl_addr, target, remaining)``: the
    ``(start_addr, n)`` runs (``(line, n)`` chunks with a *line_size*),
    then that transfer (kind ``_END`` if none) and the budget left.
    """
    base = image.base
    n_image = image.n_instructions
    kinds = image.kinds_list
    targets = image.targets_list
    next_ctrl = image.next_ctrl_list
    runs: list[tuple[int, int]] = []
    transfer = (_END, 0, 0, 0)
    while True:
        offset = pc - base
        idx = offset // INSTRUCTION_SIZE
        if offset < 0 or offset % INSTRUCTION_SIZE or idx >= n_image:
            break
        ctrl = next_ctrl[idx]
        run = (n_image if ctrl >= n_image else ctrl + 1) - idx
        take = run if run < budget else budget
        runs.append((base + idx * INSTRUCTION_SIZE, take))
        budget -= take
        if take < run or ctrl >= n_image or budget == 0:
            break
        kind = kinds[ctrl]
        if kind != _JUMP and kind != _CALL:
            transfer = (kind, base + ctrl * INSTRUCTION_SIZE, targets[ctrl], budget)
            break
        pc = targets[ctrl]
    pieces = runs if line_size is None else iter_lines_from_runs(runs, line_size)
    return (tuple(pieces), *transfer)


#: One memo of static segments per (image, line size), keyed by
#: ``(pc, remaining budget)``; see :func:`_walk`.
_segment_memos: dict[tuple, dict] = {}


def _walk(
    image: CodeImage, unit: BranchUnit, pc: int, remaining: int, line_size: int | None
) -> Sequence[tuple[int, int]]:
    """A wrong-path walk from *pc* with a *remaining* instruction budget,
    through *image*'s segment memo at *line_size* (see
    :func:`walk_segments`)."""
    if remaining <= 0:
        return ()
    return walk_segments(
        segment_memo(image, line_size), image, unit, pc, remaining, line_size
    )


def segment_memo(image: CodeImage, line_size: int | None) -> dict:
    """The memo of *image*'s static wrong-path segments at *line_size*
    (``None``: unsplit ``(start_addr, n)`` runs), keyed by ``(pc,
    remaining budget)``."""
    return memo_get(
        _segment_memos, (image,), (id(image), line_size), "segments", dict
    )


def walk_segments(
    segments: dict,
    image: CodeImage,
    unit: BranchUnit,
    pc: int,
    remaining: int,
    line_size: int | None,
) -> Sequence[tuple[int, int]]:
    """The one loop that follows wrong-path transfers.

    The code between predictor-picked transfers comes from *segments*,
    the :func:`segment_memo` of *image* at *line_size* (the engine holds
    it across a run's walks); the loop only asks the predictor
    (read-only ``peek_*``) where each such transfer goes.  The memo
    holds only what the image alone decides, because predictor state
    changes between walks.  A walk that crosses no such transfer is its
    one segment's memoized tuple, shared and read-only; a longer walk is
    a new list.  *remaining* must be positive.
    """
    walk: list[tuple[int, int]] | None = None
    while True:
        segment = segments.get((pc, remaining))
        if segment is None:
            segment = _segment(image, pc, remaining, line_size)
            segments[pc, remaining] = segment
        pieces, kind, ctrl_addr, target, remaining = segment
        if walk is None:
            if kind == _END:
                return pieces
            walk = list(pieces)
        else:
            walk += pieces
            if kind == _END:
                return walk
        fall = ctrl_addr + INSTRUCTION_SIZE
        if kind == _COND:
            pc = target if unit.peek_direction(ctrl_addr) else fall
        else:  # returns and indirect calls: the RAS, else the BTB
            predicted = (
                unit.ras.peek() if kind == _RETURN and unit.ras is not None else None
            )
            if predicted is None:
                predicted = unit.peek_target(ctrl_addr)
            pc = fall if predicted is None else predicted


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
    split them with :func:`iter_lines_from_runs`.
    """
    return list(_walk(image, unit, start_pc, max_instructions, None))


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
            line = (pos * INSTRUCTION_SIZE) >> line_shift
            in_line = per_line - pos % per_line
            chunk = in_line if in_line < left else left
            chunks.append((line, chunk))
            pos += chunk
            left -= chunk
    return chunks


def iter_wrong_path_lines(
    image: CodeImage,
    unit: BranchUnit,
    start_pc: int,
    max_instructions: int,
    line_size: int,
) -> list[tuple[int, int]]:
    """List the ``(line_number, n_instructions)`` chunks of a wrong-path
    walk: :func:`iter_wrong_path_runs` split at cache-line boundaries.

    The caller decides how many of the listed instructions actually fit
    in its redirect window.
    """
    return list(_walk(image, unit, start_pc, max_instructions, line_size))

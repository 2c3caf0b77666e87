"""Lowered, read-only simulation inputs shared across engines.

Every cell of a sweep re-reads the same trace through the same code
image, and most of what it derives per record depends on neither the
policy nor the cache state.  This module holds that derivation, done
once and memoized:

* :class:`FetchProgram` — the event loop's view of one trace at one
  line size: per record, an interned :class:`BlockPlan` with the
  record's per-line probes, its terminator's static fields and the
  counts it adds to a span (:func:`span_counts`, :func:`warmup_split`);
* :class:`FlatProbes` — the same probes in one flat trace-order list
  (the plans' own tuples), which the vector backend's real-cache mirror
  walks segment by segment;
* the identity-keyed memo (:func:`memo_get`) that
  :mod:`repro.core.vector_kernels` (the per-record arrays),
  :mod:`repro.core.wrongpath` (static wrong-path segments) and
  :mod:`repro.branch.stream` (replayed streams' line-split walks)
  share.

Lowered state is pure read-only data, so one lowering serves every
engine (and every ``AdaptiveEngine`` fork) simulating the same trace.
None of it depends on the cache geometry: both engines find a probe's
set from its line number inline, so a sweep over cache sizes and
associativities at one line size shares one lowering.
simlint SIM011 flags direct constructions outside the factories.
"""

from __future__ import annotations

import weakref
from itertools import accumulate, compress, count, islice, repeat
from operator import itemgetter, le
from typing import NamedTuple

import numpy as np

from repro.isa import INSTRUCTION_SIZE, InstrKind
from repro.program.image import CodeImage
from repro.trace.event import Trace

_PLAIN = int(InstrKind.PLAIN)
_COND = int(InstrKind.COND_BRANCH)

# -- the identity-keyed memo ---------------------------------------------------
#
# Memos key on *object identity*: content keys would need a digest the
# Trace doesn't carry, and test suites legitimately build distinct
# programs under one name/seed/shape.  Identity keying still shares
# everything that should be shared: a policy sweep passes one trace
# object to every engine, and ``FetchEngine.fork()`` shares the
# program/config/stream with its forks by identity.  An entry is dropped
# as soon as one of its source objects dies (a weak-reference
# finalizer), so an ``id()`` cannot be recycled while its entry lives,
# and a worker that loads a fresh trace per job keeps no dead trace's
# lowering alive.

MEMO_CAP = 8

#: Lowerings actually performed, by kind — a test hook (see
#: tests/core/test_lowering_sharing.py), not a metric.
LOWERING_COUNTS = {
    "fetch": 0,
    "segments": 0,
    "trace": 0,
    "probe": 0,
    "walk": 0,
}


def memo_get(memo: dict, sources: tuple, key, kind: str, build):
    """``memo[key]``, built by ``build()`` on a miss.

    *key* holds the ids of *sources*, the objects the value is derived
    from; the entry lives until one of them dies, and at most
    :data:`MEMO_CAP` entries are kept (the oldest is evicted).
    """
    value = memo.get(key)
    if value is not None:
        return value
    if len(memo) >= MEMO_CAP:
        memo.pop(next(iter(memo)))
    LOWERING_COUNTS[kind] += 1
    value = memo[key] = build()
    for source in sources:
        weakref.finalize(source, memo.pop, key, None)
    return value


# -- the event loop's fetch program -------------------------------------------


#: Bit offsets of the fields packed into :attr:`BlockPlan.counts`.
PROBES_SHIFT = 32
LENGTH_SHIFT = 64
_FIELD_MASK = (1 << PROBES_SHIFT) - 1


class BlockPlan(NamedTuple):
    """One trace record, lowered for the event loop.

    ``probes`` lists the record's right-path cache accesses as
    ``(line, chunk, gate, tail)``: *chunk* instructions issue from
    *line*, and *tail* instructions of the line remain after them (the
    fetchahead prefetch trigger).  A conditional branch's terminator is
    its own last probe with *gate* set: the speculation-depth gate runs
    just before it.  The remaining fields describe the terminator, the
    inputs of the branch unit's ``predict``.

    ``counts`` packs what the record adds to a span's totals into one
    int: its length at :data:`LENGTH_SHIFT`, its probe count at
    :data:`PROBES_SHIFT` and 1 in the low field for a conditional
    branch.  A span's totals are therefore one C-level ``sum`` of its
    plans' counts (see :func:`span_counts`), and because the length is
    the top field, running sums order by instruction count, which is
    how :func:`warmup_split` finds the warmup boundary.
    """

    counts: int
    probes: tuple[tuple[int, int, bool, int], ...]
    kind: int
    term_addr: int
    kind_enum: InstrKind
    static_target: int | None
    fall: int
    taken: bool
    next_pc: int


_COUNTS = itemgetter(0)


def span_counts(plans: list[BlockPlan]) -> tuple[int, int, int]:
    """``(instructions, probes, conditionals)`` of a span of plans (the
    probe and conditional totals of one span must stay below 2**32)."""
    counts = sum(map(_COUNTS, plans))
    return (
        counts >> LENGTH_SHIFT,
        (counts >> PROBES_SHIFT) & _FIELD_MASK,
        counts & _FIELD_MASK,
    )


def warmup_split(plans: list[BlockPlan], warm_left: int) -> tuple[int, int]:
    """Where *warm_left* (> 0) more warmup instructions end in *plans*.

    Returns ``(index, instructions)``: the index of the first plan
    whose running instruction count reaches *warm_left* (the
    measurement restarts just before it), or ``len(plans)`` when the
    span ends first, and the span's instruction count up to and
    including that plan.  Both come from C-level iterators over the
    plans' counts, with no per-plan list built.
    """
    reached = map(
        le, repeat(warm_left << LENGTH_SHIFT), accumulate(map(_COUNTS, plans))
    )
    index = next(compress(count(), reached), len(plans))
    return index, sum(map(_COUNTS, islice(plans, index + 1))) >> LENGTH_SHIFT


def _line_probes(
    pc: int, n: int, gate: bool, shift: int, per_line: int
) -> list[tuple[int, int, bool, int]]:
    """Split *n* sequential instructions at *pc* into per-line probes."""
    probes = []
    idx = pc // INSTRUCTION_SIZE
    while n > 0:
        in_line = per_line - idx % per_line
        chunk = in_line if in_line < n else n
        probes.append((pc >> shift, chunk, gate, in_line - chunk))
        pc += chunk * INSTRUCTION_SIZE
        idx += chunk
        n -= chunk
    return probes


class FetchProgram:
    """One trace lowered for the event loop at one line size.

    ``plans[i]`` is record *i*'s :class:`BlockPlan`.  A trace built by
    the library already holds one record object per distinct block (a
    200k-instruction gcc trace has 37,934 records but 1,318 distinct
    ones), and the plans mirror it: one small plan per distinct record,
    one list slot per record.  Plans are keyed by record value, not
    identity, so a hand-built trace of equal but distinct records
    lowers to the same plans.
    """

    __slots__ = ("plans",)

    def __init__(self, trace: Trace, image: CodeImage, line_size: int) -> None:
        shift = line_size.bit_length() - 1
        per_line = line_size // INSTRUCTION_SIZE
        base = image.base
        targets = image.targets_list
        interned: dict[tuple, BlockPlan] = {}
        plans = []
        for record in trace.records:
            plan = interned.get(record)
            if plan is None:
                start, length, kind, taken, next_pc = record
                term_addr = start + (length - 1) * INSTRUCTION_SIZE
                static_target = None
                if kind == _COND:
                    probes = _line_probes(
                        start, length - 1, False, shift, per_line
                    ) + _line_probes(term_addr, 1, True, shift, per_line)
                else:
                    probes = _line_probes(start, length, False, shift, per_line)
                if kind != _PLAIN:
                    raw = targets[(term_addr - base) // INSTRUCTION_SIZE]
                    static_target = None if raw < 0 else raw
                counts = (
                    length << LENGTH_SHIFT
                    | len(probes) << PROBES_SHIFT
                    | (kind == _COND)
                )
                plan = interned[record] = BlockPlan(
                    counts, tuple(probes), kind, term_addr, InstrKind(kind),
                    static_target, term_addr + INSTRUCTION_SIZE, taken, next_pc,
                )
            plans.append(plan)
        self.plans = plans


_fetch_memo: dict[tuple, FetchProgram] = {}


def fetch_program(trace: Trace, image: CodeImage, line_size: int) -> FetchProgram:
    """The (memoized) fetch program of *trace* through *image* at
    *line_size*."""
    return memo_get(
        _fetch_memo,
        (trace, image),
        (id(trace), id(image), line_size),
        "fetch",
        lambda: FetchProgram(trace, image, line_size),
    )


class FlatProbes:
    """The right-path probes of one :class:`FetchProgram` in trace order.

    ``probes`` concatenates every record's ``BlockPlan.probes``: the
    entries are the plans' own interned ``(line, chunk, gate, tail)``
    tuples, so the list costs one slot per probe.  ``last_probe[i]`` is
    record *i*'s last probe index (every record has at least one).
    """

    __slots__ = ("probes", "last_probe")

    def __init__(self, program: FetchProgram) -> None:
        plans = program.plans
        probes: list[tuple[int, int, bool, int]] = []
        for plan in plans:
            probes += plan.probes
        self.probes = probes
        counts = np.fromiter(
            (len(plan.probes) for plan in plans), np.int64, len(plans)
        )
        self.last_probe = np.cumsum(counts) - 1


_probe_memo: dict[tuple, FlatProbes] = {}


def flat_probes(trace: Trace, image: CodeImage, line_size: int) -> FlatProbes:
    """The (memoized) flat probe list of *trace* through *image* at
    *line_size*, built from its :func:`fetch_program`."""
    return memo_get(
        _probe_memo,
        (trace, image),
        (id(trace), id(image), line_size),
        "probe",
        lambda: FlatProbes(fetch_program(trace, image, line_size)),
    )

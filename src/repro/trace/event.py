"""Trace records.

A :class:`BlockRecord` describes one correct-path basic-block execution:
``length`` instructions starting at ``start``, the last of which is the
control transfer of kind ``kind`` (or ``PLAIN`` when the block was split
without a control transfer, e.g. at an image boundary).  ``next_pc`` is the
address actually executed next, and ``taken`` records the actual direction
for conditional branches.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import TraceError
from repro.isa import INSTRUCTION_SIZE, InstrKind


class BlockRecord(NamedTuple):
    """One executed basic block on the correct path."""

    #: Address of the first instruction of the block.
    start: int
    #: Number of instructions in the block, terminator included.
    length: int
    #: Terminator kind as an int (``InstrKind`` value); PLAIN for splits.
    kind: int
    #: Actual direction for COND_BRANCH terminators (True = taken).
    #: True for unconditional transfers; False for PLAIN splits.
    taken: bool
    #: Address executed after this block (actual next PC).
    next_pc: int

    @property
    def terminator_address(self) -> int:
        """Address of the block's final instruction."""
        return self.start + (self.length - 1) * INSTRUCTION_SIZE

    @property
    def fall_through(self) -> int:
        """Address just past the block (not-taken continuation)."""
        return self.start + self.length * INSTRUCTION_SIZE

    def validate(self) -> None:
        """Raise :class:`TraceError` if the record is self-inconsistent."""
        if self.length < 1:
            raise TraceError(f"block at {self.start:#x} has length {self.length}")
        if self.start < 0 or self.start % INSTRUCTION_SIZE:
            raise TraceError(f"misaligned block start {self.start:#x}")
        if self.next_pc < 0 or self.next_pc % INSTRUCTION_SIZE:
            raise TraceError(f"misaligned next_pc {self.next_pc:#x}")
        kind = InstrKind(self.kind)
        if kind is InstrKind.COND_BRANCH and not self.taken:
            if self.next_pc != self.fall_through:
                raise TraceError(
                    f"not-taken branch at {self.terminator_address:#x} "
                    f"continues at {self.next_pc:#x}, expected fall-through "
                    f"{self.fall_through:#x}"
                )
        if kind is InstrKind.PLAIN and self.taken:
            raise TraceError(f"PLAIN-terminated block at {self.start:#x} taken")


class RecordInterner(dict[tuple, BlockRecord]):
    """``interner[key]`` is the one :class:`BlockRecord` equal to the
    plain ``(start, length, kind, taken, next_pc)`` tuple *key*.

    A hit is a C-level dict lookup of the key tuple; a record is built
    only for a key not seen before, so a duplicate is never allocated.
    Keys compare by value, so callers must pass ``taken`` as a bool
    (``1 == True``).
    """

    __slots__ = ()

    def __missing__(self, key: tuple) -> BlockRecord:
        record = self[key] = BlockRecord._make(key)
        return record


class ValidatingInterner(RecordInterner):
    """A :class:`RecordInterner` that validates each record when it first
    builds it, so a trace of repeated blocks checks each distinct record
    once; an invalid record raises :class:`TraceError` and is not kept."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> BlockRecord:
        record = BlockRecord._make(key)
        record.validate()
        self[key] = record
        return record


@dataclass(slots=True, weakref_slot=True)
class Trace:
    """An ordered sequence of correct-path block records.

    ``records`` holds one slot per dynamic block.  The trace generator,
    :func:`~repro.trace.io.load_trace` and the text-format reader fill
    it through one :class:`RecordInterner` each, so equal slots point
    at one shared :class:`BlockRecord`.  A hand-built list need not
    share: nothing downstream relies on record identity.
    """

    program_name: str
    records: list[BlockRecord] = field(default_factory=list)
    seed: int | None = None
    _n_instructions: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        self._n_instructions = sum(r.length for r in self.records)

    @property
    def n_instructions(self) -> int:
        """Total correct-path instructions in the trace."""
        return self._n_instructions

    @property
    def n_blocks(self) -> int:
        """Number of block records."""
        return len(self.records)

    def __iter__(self) -> Iterator[BlockRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def validate(self) -> None:
        """Check every record plus inter-record continuity."""
        for record in self.records:
            record.validate()
        self.check_continuity()

    def check_continuity(self) -> None:
        """Raise :class:`TraceError` unless every record starts where the
        previous one continues."""
        for prev, nxt in zip(self.records, self.records[1:]):
            if prev.next_pc != nxt.start:
                raise TraceError(
                    f"discontinuity: block at {prev.start:#x} continues at "
                    f"{prev.next_pc:#x} but next block starts at {nxt.start:#x}"
                )

    def __repr__(self) -> str:
        return (
            f"Trace(program={self.program_name!r}, blocks={self.n_blocks}, "
            f"instructions={self.n_instructions})"
        )

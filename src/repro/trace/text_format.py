"""Human-readable trace interchange format.

The binary ``.npz`` format (:mod:`repro.trace.io`) is for our own round
trips; this text format is for *interop*: anyone with a basic-block trace
from another tool (a real-machine tracer, another simulator) can convert
it to this format and replay it through the fetch-policy engine, as the
paper's authors replayed ATOM traces.

Format (one record per line, ``#`` comments and blank lines ignored)::

    # repro-trace v1
    # program: gcc
    # seed: 1995
    0x00010000 6 COND_BRANCH T 0x00010040
    0x00010040 3 CALL T 0x00012000
    ...

Columns: block start address (hex), instruction count (terminator
included), terminator kind (an :class:`~repro.isa.InstrKind` name; PLAIN
for split blocks), actual direction (``T``/``N``), and the next PC (hex).
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from repro.errors import TraceError
from repro.isa import InstrKind
from repro.trace.event import BlockRecord, Trace, ValidatingInterner

_HEADER = "# repro-trace v1"
_KIND_NAMES = {kind.name: int(kind) for kind in InstrKind}


def save_text_trace(trace: Trace, path: str | os.PathLike[str]) -> None:
    """Write *trace* in the text interchange format."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{_HEADER}\n")
        handle.write(f"# program: {trace.program_name}\n")
        if trace.seed is not None:
            handle.write(f"# seed: {trace.seed}\n")
        for record in trace.records:
            kind = InstrKind(record.kind).name
            direction = "T" if record.taken else "N"
            handle.write(
                f"{record.start:#010x} {record.length} {kind} "
                f"{direction} {record.next_pc:#010x}\n"
            )


def _parse_line(
    line: str, lineno: int, interned: ValidatingInterner
) -> BlockRecord:
    fields = line.split()
    if len(fields) != 5:
        raise TraceError(
            f"line {lineno}: expected 5 fields, got {len(fields)}: {line!r}"
        )
    start_text, length_text, kind_name, direction, next_text = fields
    try:
        start = int(start_text, 16)
        length = int(length_text)
        next_pc = int(next_text, 16)
    except ValueError as exc:
        raise TraceError(f"line {lineno}: bad number: {exc}") from None
    try:
        kind = _KIND_NAMES[kind_name]
    except KeyError:
        raise TraceError(
            f"line {lineno}: unknown instruction kind {kind_name!r} "
            f"(expected one of {sorted(_KIND_NAMES)})"
        ) from None
    if direction not in ("T", "N"):
        raise TraceError(
            f"line {lineno}: direction must be T or N, got {direction!r}"
        )
    try:
        # Validated when first seen: a repeated block is a dict hit.
        return interned[(start, length, kind, direction == "T", next_pc)]
    except TraceError as exc:
        raise TraceError(f"line {lineno}: {exc}") from None


def parse_text_trace(
    lines: Iterable[str], program_name: str = "external"
) -> Trace:
    """Parse text-format lines into a :class:`Trace`.

    The header line is required; ``program:`` and ``seed:`` comments are
    honoured when present.  Each distinct record is validated once, on
    the line where it first appears (which the error names), then the
    trace's continuity is checked.
    """
    interned = ValidatingInterner()
    records: list[BlockRecord] = []
    seed: int | None = None
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if lineno == 1 or not saw_header:
                if line == _HEADER:
                    saw_header = True
                    continue
                raise TraceError(
                    f"missing header; the first line must be {_HEADER!r}"
                )
            if body.startswith("program:"):
                program_name = body.split(":", 1)[1].strip()
            elif body.startswith("seed:"):
                try:
                    seed = int(body.split(":", 1)[1].strip())
                except ValueError:
                    raise TraceError(f"line {lineno}: bad seed") from None
            continue
        if not saw_header:
            raise TraceError(f"missing header; the first line must be {_HEADER!r}")
        records.append(_parse_line(line, lineno, interned))
    if not records:
        raise TraceError("trace contains no records")
    trace = Trace(program_name=program_name, records=records, seed=seed)
    trace.check_continuity()
    return trace


def load_text_trace(
    path: str | os.PathLike[str], program_name: str = "external"
) -> Trace:
    """Read a text-format trace from *path*."""
    with open(path, encoding="ascii") as handle:
        return parse_text_trace(handle, program_name=program_name)

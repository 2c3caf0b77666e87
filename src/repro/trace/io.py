"""Trace persistence.

Traces are saved as compressed ``.npz`` archives of parallel arrays.  This
is mostly a convenience for benchmarking workflows that want to generate a
long trace once and replay it across many simulator configurations in
separate processes; the artifact cache (:mod:`repro.core.artifacts`)
stores generated traces in the same format.

Every way a load can fail — missing file, truncated or corrupt archive,
missing fields, mismatched array lengths — raises
:class:`~repro.errors.TraceError`, never a raw ``numpy``/``zipfile``
exception.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

from repro.errors import TraceError
from repro.trace.event import RecordInterner, Trace

_FORMAT_VERSION = 1

_FIELDS = ("starts", "lengths", "kinds", "takens", "next_pcs")


def save_trace(trace: Trace, path: str | os.PathLike[str]) -> None:
    """Write *trace* to *path* as a compressed npz archive."""
    if trace.records:
        starts, lengths, kinds, takens, next_pcs = zip(*trace.records)
    else:
        starts = lengths = kinds = takens = next_pcs = ()
    np.savez_compressed(
        path,
        version=np.int32(_FORMAT_VERSION),
        program_name=np.str_(trace.program_name),
        seed=np.int64(-1 if trace.seed is None else trace.seed),
        starts=np.asarray(starts, dtype=np.int64),
        lengths=np.asarray(lengths, dtype=np.int32),
        kinds=np.asarray(kinds, dtype=np.int8),
        takens=np.asarray(takens, dtype=np.bool_),
        next_pcs=np.asarray(next_pcs, dtype=np.int64),
    )


def load_trace(path: str | os.PathLike[str]) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    Raises :class:`TraceError` for anything short of a well-formed
    archive: a missing/unreadable file, a truncated or corrupt zip, a
    wrong format version, missing fields, or parallel arrays whose
    lengths disagree.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise TraceError(f"cannot read trace archive {path}: {exc}") from exc
    with archive as data:
        try:
            version = int(data["version"])
            if version != _FORMAT_VERSION:
                raise TraceError(f"unsupported trace format version {version}")
            program_name = str(data["program_name"])
            seed_raw = int(data["seed"])
            columns = [data[name] for name in _FIELDS]
        except KeyError as exc:
            raise TraceError(f"trace archive missing field {exc}") from exc
        except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
            # Member decompression can fail lazily, e.g. on a truncated
            # archive whose central directory survived.
            raise TraceError(f"corrupt trace archive {path}: {exc}") from exc
    lengths = {name: len(col) for name, col in zip(_FIELDS, columns)}
    if len(set(lengths.values())) > 1:
        raise TraceError(f"trace archive {path} has ragged columns: {lengths}")
    # Single C-level conversion per column, then one interned BlockRecord
    # per distinct row: a repeated row is a dict hit on its plain tuple.
    rows = zip(*(col.tolist() for col in columns))
    return Trace(
        program_name=program_name,
        records=list(map(RecordInterner().__getitem__, rows)),
        seed=None if seed_raw < 0 else seed_raw,
    )

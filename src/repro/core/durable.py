"""The on-disk contract shared by the repo's durable stores.

:class:`~repro.core.store.ResultStore`,
:class:`~repro.core.artifacts.ArtifactCache` and
:class:`~repro.service.recovery.RequestJournal` publish every entry
atomically through the helpers here, degrade through
:meth:`DurableStore.degrade` (the first ``OSError`` counts, disables and
warns once) and prune with :func:`remove_tree`.  Each store keeps its own
layout, keying and load validation.  docs/robustness.md ("On-disk
contract") states the whole contract.
"""

from __future__ import annotations

import contextlib
import errno
import os
import shutil
import tempfile
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

T = TypeVar("T")


@dataclass(slots=True)
class PruneStats:
    """What one ``prune()`` reclaimed."""

    entries: int = 0
    bytes_freed: int = 0


class DurableStore:
    """A root directory plus the degrade policy; ``None`` disables it."""

    #: Noun used in the one warning :meth:`degrade` emits.
    kind = "store"

    def __init__(self, directory: str | os.PathLike[str] | None) -> None:
        self.root: Path | None = None if directory is None else Path(directory)
        #: Writes that failed with an ``OSError``; the first disables.
        self.store_failures = 0
        self._disabled = False

    @property
    def enabled(self) -> bool:
        """True when a directory was configured and the store is healthy."""
        return self.root is not None and not self._disabled

    def degrade(self, exc: OSError, what: str) -> None:
        """Count *exc*, disable the store and warn (once: it is now off)."""
        self.store_failures += 1
        self._disabled = True
        warnings.warn(
            f"{self.kind} disabled for this run: {what} failed: "
            f"{type(exc).__name__}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )


def publish_file(
    directory: Path,
    payload: bytes | Callable[[str], object],
    publish: Callable[[str], T],
    suffix: str = ".tmp",
) -> T:
    """Write *payload* to a temp file in *directory*, then ``publish(tmp)``.

    *payload* is bytes, or a callable that writes the temp file by name.
    The temp file is removed if writing or publishing fails.
    """
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=suffix)
    try:
        if callable(payload):
            os.close(fd)
            payload(tmp)
        else:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
        return publish(tmp)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write(
    path: Path,
    payload: bytes | Callable[[str], object],
    suffix: str = ".tmp",
) -> None:
    """Publish *payload* at *path* with one ``os.replace``: all or nothing."""
    publish_file(path.parent, payload, lambda tmp: os.replace(tmp, path), suffix)


def publish_dir(directory: Path, fill: Callable[[Path], object]) -> None:
    """Build *directory* in a temp sibling with ``fill(tmp)``, then rename it.

    The one ``OSError`` swallowed is a destination that already exists:
    a concurrent writer of the same content won the race.
    """
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(
        tempfile.mkdtemp(dir=directory.parent, prefix=directory.name + ".tmp")
    )
    try:
        fill(tmp)
        try:
            os.rename(tmp, directory)
        except OSError as exc:
            if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                raise
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def remove_tree(path: Path, stats: PruneStats) -> int:
    """Delete *path* (a file or a tree), best-effort; return files removed.

    The bytes reclaimed go to ``stats.bytes_freed``; each store does its
    own entry accounting.
    """
    if path.is_dir() and not path.is_symlink():
        removed = 0
        with contextlib.suppress(OSError):
            for child in sorted(path.iterdir()):
                removed += remove_tree(child, stats)
            path.rmdir()
        return removed
    try:
        size = path.lstat().st_size
        path.unlink()
    except OSError:
        return 0
    stats.bytes_freed += size
    return 1

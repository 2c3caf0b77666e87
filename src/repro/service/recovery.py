"""Crash recovery for the sweep service: a journal of admitted requests.

The server can die mid-request — an injected ``exit`` fault, an OOM
kill, an operator's SIGKILL — with clients' work half done.  Finished
*cells* already survive in the :class:`~repro.core.store.ResultStore`
(every completed simulation is persisted before its response is sent),
so the only state worth journalling is *which requests were in flight*.

:class:`RequestJournal` therefore records each request's raw wire body
at admission and discards it after the response has been written.  A
restarted server replays every journalled body through the normal
admission path: cells that finished before the crash hit the result
store and cost nothing; cells that did not are re-simulated.  The
journal never holds results — the store is the single source of truth —
so replaying a request twice is harmless (idempotent by content
addressing).

Disk contract (same family as the result store):

* entries live under ``<dir>/v<JOURNAL_VERSION>/<seq>.req`` and replay
  in admission order;
* an entry is published by writing a complete temp file and hard-linking
  it into place (create-exclusive), so a crash mid-record leaves at most
  an orphaned temp file, never a half-written entry under a final name;
* a body that no longer decodes (torn write, version skew) is an
  *unrecoverable* entry: it is counted, removed, and skipped — recovery
  must never wedge the server.
"""

from __future__ import annotations

import contextlib
import os
import re
import tempfile
from pathlib import Path

#: On-disk journal layout version.
JOURNAL_VERSION = 1

#: Entry-file shape: zero-padded admission sequence + ``.req``.
_ENTRY_RE = re.compile(r"^(\d{8})\.req$")


class RequestJournal:
    """Journal of raw request bodies awaiting a response.

    ``RequestJournal(None)`` is a disabled no-op (every ``record``
    returns ``None``), so the server never branches on configuration.
    """

    def __init__(self, directory: str | os.PathLike[str] | None) -> None:
        self.root: Path | None = None if directory is None else Path(directory)
        #: Entries dropped by :meth:`pending` because they were damaged.
        self.unrecoverable = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _base(self) -> Path:
        assert self.root is not None
        return self.root / f"v{JOURNAL_VERSION}"

    # -- record / discard ------------------------------------------------------

    def record(self, body: bytes) -> str | None:
        """Journal one admitted request; returns its discard token.

        The entry is complete before it becomes visible: the body lands
        in a temp file first and is published under the next free
        sequence number with ``os.link`` (fails on collision, so two
        concurrent recorders can never share a name).  Journal failures
        are swallowed — a server that cannot journal still serves, it
        just cannot replay after a crash.
        """
        if self.root is None:
            return None
        base = self._base()
        try:
            base.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(body)
            seq = self._next_seq(base)
            while True:
                final = base / f"{seq:08d}.req"
                try:
                    os.link(tmp, final)
                except FileExistsError:
                    seq += 1
                    continue
                break
            os.unlink(tmp)
        except OSError:
            return None
        return final.name

    def discard(self, token: str | None) -> None:
        """Forget one answered request (idempotent, never raises)."""
        if self.root is None or token is None:
            return
        with contextlib.suppress(OSError):
            os.unlink(self._base() / token)

    # -- replay ----------------------------------------------------------------

    def pending(self) -> list[tuple[str, bytes]]:
        """Journalled ``(token, body)`` pairs in admission order.

        Unreadable entries are removed and counted in
        :attr:`unrecoverable` rather than raised: a corrupt journal entry
        means one lost request, not a server that cannot start.
        """
        if self.root is None:
            return []
        base = self._base()
        if not base.is_dir():
            return []
        entries: list[tuple[str, bytes]] = []
        for path in sorted(base.iterdir()):
            if not _ENTRY_RE.match(path.name):
                # Orphaned temp file from a crash mid-record.
                if path.name.endswith(".tmp"):
                    with contextlib.suppress(OSError):
                        path.unlink()
                continue
            try:
                entries.append((path.name, path.read_bytes()))
            except OSError:
                self.unrecoverable += 1
                with contextlib.suppress(OSError):
                    path.unlink()
        return entries

    def _next_seq(self, base: Path) -> int:
        """First sequence number after every existing entry."""
        last = -1
        for path in base.iterdir():
            match = _ENTRY_RE.match(path.name)
            if match:
                last = max(last, int(match.group(1)))
        return last + 1

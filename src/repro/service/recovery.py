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

Writes and failures follow the shared on-disk contract
(:mod:`repro.core.durable`).  The journal's own rules:

* entries live under ``<dir>/v<JOURNAL_VERSION>/<seq>.req`` and replay
  in admission order; a crash mid-record leaves at most an orphaned
  temp file, which :meth:`RequestJournal.pending` sweeps;
* a body that no longer decodes (torn write, version skew) is an
  *unrecoverable* entry: it is counted, removed, and skipped — recovery
  must never wedge the server.
"""

from __future__ import annotations

import contextlib
import os
import re
from pathlib import Path

from repro.core.durable import DurableStore, publish_file

#: On-disk journal layout version.
JOURNAL_VERSION = 1

#: Entry-file shape: zero-padded admission sequence + ``.req``.
_ENTRY_RE = re.compile(r"^(\d{8})\.req$")


class RequestJournal(DurableStore):
    """Journal of raw request bodies awaiting a response.

    ``RequestJournal(None)`` is a disabled no-op (every ``record``
    returns ``None``), so the server never branches on configuration.
    """

    kind = "request journal"

    def __init__(self, directory: str | os.PathLike[str] | None) -> None:
        super().__init__(directory)
        #: Entries dropped by :meth:`pending` because they were damaged.
        self.unrecoverable = 0

    def _base(self) -> Path:
        assert self.root is not None
        return self.root / f"v{JOURNAL_VERSION}"

    # -- record / discard ------------------------------------------------------

    def record(self, body: bytes) -> str | None:
        """Journal one admitted request; returns its discard token.

        A failure degrades the journal and returns ``None``: a server
        that cannot journal still serves, it just cannot replay.
        """
        if not self.enabled:
            return None
        base = self._base()
        try:
            base.mkdir(parents=True, exist_ok=True)
            return publish_file(base, body, self._link_next)
        except OSError as exc:
            self.degrade(exc, "recording a request")
            return None

    def _link_next(self, tmp: str) -> str:
        """Hard-link *tmp* under the next free sequence number.

        ``os.link`` fails on collision, so concurrent recorders never
        share a name.
        """
        base = Path(tmp).parent
        seq = self._next_seq(base)
        while True:
            final = base / f"{seq:08d}.req"
            try:
                os.link(tmp, final)
            except FileExistsError:
                seq += 1
                continue
            os.unlink(tmp)
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

"""RequestJournal: admission-ordered record/replay, damage containment."""

from __future__ import annotations

import errno
import os
import warnings

import pytest

from repro.service.recovery import JOURNAL_VERSION, RequestJournal


class TestDisabled:
    def test_noop_everywhere(self):
        journal = RequestJournal(None)
        assert not journal.enabled
        assert journal.record(b"body") is None
        assert journal.pending() == []
        journal.discard(None)  # never raises
        journal.discard("00000000.req")


class TestRecordReplay:
    def test_pending_in_admission_order(self, tmp_path):
        journal = RequestJournal(tmp_path)
        tokens = [journal.record(f"body-{i}".encode()) for i in range(3)]
        assert all(token is not None for token in tokens)
        assert len(set(tokens)) == 3
        assert journal.pending() == [
            (tokens[0], b"body-0"),
            (tokens[1], b"body-1"),
            (tokens[2], b"body-2"),
        ]

    def test_discard_is_idempotent(self, tmp_path):
        journal = RequestJournal(tmp_path)
        token = journal.record(b"answered")
        journal.discard(token)
        journal.discard(token)
        assert journal.pending() == []

    def test_two_recorders_never_collide(self, tmp_path):
        # Two server instances sharing a journal directory (restart
        # overlap): names must stay unique and ordered.
        first = RequestJournal(tmp_path)
        second = RequestJournal(tmp_path)
        t1 = first.record(b"one")
        t2 = second.record(b"two")
        t3 = first.record(b"three")
        assert len({t1, t2, t3}) == 3
        assert [body for _, body in RequestJournal(tmp_path).pending()] == [
            b"one", b"two", b"three",
        ]

    def test_record_failure_is_swallowed(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the journal dir should go")
        journal = RequestJournal(blocked)
        with pytest.warns(RuntimeWarning, match="request journal disabled"):
            assert journal.record(b"body") is None  # serve on, just not resumable
        assert journal.store_failures == 1
        assert not journal.enabled
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second failure stays quiet
            assert journal.record(b"again") is None
        assert journal.store_failures == 1

    def test_failed_publish_leaves_no_temp_file(self, tmp_path, monkeypatch):
        journal = RequestJournal(tmp_path)
        kept = journal.record(b"before")

        def no_hard_links(src, dst, **kwargs):
            raise PermissionError(errno.EPERM, "hard links not supported")

        # A filesystem without hard links fails the publish mid-record.
        monkeypatch.setattr(os, "link", no_hard_links)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert journal.record(b"one") is None
            assert journal.record(b"two") is None
        assert [w.category for w in caught] == [RuntimeWarning]
        assert journal.store_failures == 1
        base = tmp_path / f"v{JOURNAL_VERSION}"
        assert sorted(path.name for path in base.iterdir()) == [kept]


class TestDamage:
    def test_orphaned_temp_files_are_cleaned(self, tmp_path):
        journal = RequestJournal(tmp_path)
        journal.record(b"real")
        base = tmp_path / f"v{JOURNAL_VERSION}"
        orphan = base / "tmpdeadbeef.tmp"
        orphan.write_bytes(b"crashed mid-record")
        assert [body for _, body in journal.pending()] == [b"real"]
        assert not orphan.exists()

    def test_unreadable_entry_counted_and_skipped(self, tmp_path):
        journal = RequestJournal(tmp_path)
        journal.record(b"good")
        base = tmp_path / f"v{JOURNAL_VERSION}"
        # A directory matching the entry shape defeats read_bytes.
        (base / "00000099.req").mkdir()
        assert [body for _, body in journal.pending()] == [b"good"]
        assert journal.unrecoverable == 1

    def test_foreign_files_ignored(self, tmp_path):
        journal = RequestJournal(tmp_path)
        base = tmp_path / f"v{JOURNAL_VERSION}"
        base.mkdir(parents=True)
        (base / "README").write_text("not an entry")
        (base / "12345.req").write_text("wrong zero padding")
        assert journal.pending() == []
        assert journal.unrecoverable == 0

"""ResultStore: content addressing, corruption tolerance, pruning.

The corruption-tolerance contract (same family as ``ArtifactCache``):
*any* damaged entry — truncated, garbled, wrong
version, wrong identity — is a miss that re-simulates, never an error,
and the re-store atomically overwrites the damage.
"""

from __future__ import annotations

import errno
import os
import pickle
import warnings

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.errors import CheckpointError
from repro.service import RESULT_STORE_VERSION, ResultStore, cell_digest

from tests.service.conftest import SEED, TRACE, WARMUP

ORACLE = SimConfig(policy=FetchPolicy.ORACLE)
RESUME = SimConfig(policy=FetchPolicy.RESUME)


@pytest.fixture(scope="module")
def result():
    runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=SEED)
    return runner.run("li", ORACLE)


def _digest(config=ORACLE, benchmark="li", trace=TRACE, warmup=WARMUP,
            seed=SEED):
    return cell_digest(benchmark, config, trace, warmup, seed)


class TestDigest:
    def test_deterministic_across_reconstruction(self):
        assert _digest() == _digest(config=SimConfig(policy=FetchPolicy.ORACLE))

    def test_every_input_discriminates(self):
        base = _digest()
        assert _digest(benchmark="doduc") != base
        assert _digest(trace=TRACE + 1) != base
        assert _digest(warmup=WARMUP + 1) != base
        assert _digest(seed=SEED + 1) != base
        assert _digest(config=RESUME) != base
        assert _digest(config=SimConfig(policy=FetchPolicy.ORACLE,
                                        prefetch=True)) != base

    def test_shape(self):
        digest = _digest()
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestRoundTrip:
    def test_store_then_load(self, tmp_path, result):
        store = ResultStore(tmp_path)
        digest = _digest()
        assert store.load(digest, "li", ORACLE, TRACE, WARMUP, SEED) is None
        store.store(digest, "li", ORACLE, TRACE, WARMUP, SEED, result)
        loaded = store.load(digest, "li", ORACLE, TRACE, WARMUP, SEED)
        assert loaded is not None
        assert loaded.penalties.as_dict() == result.penalties.as_dict()
        assert loaded.total_ispi == result.total_ispi
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)
        assert store.entries() == 1

    def test_identity_mismatch_is_a_miss(self, tmp_path, result):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.store(digest, "li", ORACLE, TRACE, WARMUP, SEED, result)
        # Same digest, different request identity: collision or tamper.
        assert store.load(digest, "li", RESUME, TRACE, WARMUP, SEED) is None
        assert store.load(digest, "li", ORACLE, TRACE + 1, WARMUP, SEED) is None
        assert store.load(digest, "doduc", ORACLE, TRACE, WARMUP, SEED) is None

    def test_disabled_store_is_a_noop(self, result):
        store = ResultStore(None)
        assert not store.enabled
        assert store.load(_digest(), "li", ORACLE, TRACE, WARMUP, SEED) is None
        store.store(_digest(), "li", ORACLE, TRACE, WARMUP, SEED, result)
        assert store.entries() == 0
        assert store.prune().entries == 0
        with pytest.raises(CheckpointError):
            store.entry_path(_digest())

    def test_malformed_digest_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "zz", "A" * 64, "0" * 63):
            with pytest.raises(CheckpointError):
                store.entry_path(bad)


class TestCorruptionTolerance:
    """Satellite contract: damage is always a miss, never fatal."""

    def _stored(self, tmp_path, result):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.store(digest, "li", ORACLE, TRACE, WARMUP, SEED, result)
        return store, digest

    def _damage_cases(self, payload: bytes):
        return {
            "truncated": payload[: len(payload) // 3],
            "empty": b"",
            "garbage": b"\x00not a pickle at all\xff",
            "wrong-version": pickle.dumps({"version": RESULT_STORE_VERSION + 1}),
            "not-a-dict": pickle.dumps(["a", "list"]),
            "not-a-result": pickle.dumps(
                {"version": RESULT_STORE_VERSION, "result": object()}
            ),
        }

    def test_every_damage_mode_is_a_miss(self, tmp_path, result):
        store, digest = self._stored(tmp_path, result)
        path = store.entry_path(digest)
        intact = path.read_bytes()
        for name, damaged in self._damage_cases(intact).items():
            path.write_bytes(damaged)
            assert store.load(
                digest, "li", ORACLE, TRACE, WARMUP, SEED
            ) is None, f"damage mode {name!r} was trusted"
        assert store.misses == len(self._damage_cases(intact))

    def test_restore_atomically_overwrites_damage(self, tmp_path, result):
        store, digest = self._stored(tmp_path, result)
        path = store.entry_path(digest)
        path.write_bytes(b"\x00torn write\x00")
        assert store.load(digest, "li", ORACLE, TRACE, WARMUP, SEED) is None
        # The re-simulation path stores again; the damage is gone.
        store.store(digest, "li", ORACLE, TRACE, WARMUP, SEED, result)
        loaded = store.load(digest, "li", ORACLE, TRACE, WARMUP, SEED)
        assert loaded is not None
        assert loaded.penalties.as_dict() == result.penalties.as_dict()
        # No temp droppings from the atomic write.
        assert [p for p in path.parent.iterdir() if p.suffix != ".pkl"] == []

    def test_unwritable_store_disables_gracefully(self, tmp_path, result):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store dir should go")
        store = ResultStore(blocked)
        with pytest.warns(RuntimeWarning, match="result store disabled"):
            store.store(_digest(), "li", ORACLE, TRACE, WARMUP, SEED, result)
        assert not store.enabled
        assert store.store_failures == 1
        # Disabled means every later lookup is a cheap miss, not an error.
        assert store.load(_digest(), "li", ORACLE, TRACE, WARMUP, SEED) is None

    def test_failed_write_leaves_entry_and_no_temp_file(
        self, tmp_path, result, monkeypatch
    ):
        store = ResultStore(tmp_path)
        store.store(_digest(), "li", ORACLE, TRACE, WARMUP, SEED, result)
        entry = store.entry_path(_digest())
        before = entry.read_bytes()

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store.store(_digest(), "li", ORACLE, TRACE, WARMUP, SEED, result)
            store.store(_digest(RESUME), "li", RESUME, TRACE, WARMUP, SEED, result)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert store.store_failures == 1
        assert entry.read_bytes() == before
        assert sorted(path.name for path in entry.parent.iterdir()) == [entry.name]


class TestPrune:
    def test_prune_reclaims_only_dead_entries(self, tmp_path, result):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.store(digest, "li", ORACLE, TRACE, WARMUP, SEED, result)
        live = store.entry_path(digest)
        # An orphaned old version tree, junk in a valid shard, a temp file.
        old = tmp_path / "v0" / "ab"
        old.mkdir(parents=True)
        (old / ("a" * 64 + ".pkl")).write_bytes(b"old tree")
        (live.parent / "not-a-digest.pkl").write_bytes(b"junk")
        (live.parent / "leftover.tmp").write_bytes(b"tmp")
        stats = store.prune()
        assert stats.entries == 3
        assert live.is_file()
        assert store.entries() == 1
        assert store.load(digest, "li", ORACLE, TRACE, WARMUP, SEED) is not None

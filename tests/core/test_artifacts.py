"""Persistent artifact cache: keying, reuse, corruption handling, wiring."""

import errno
import os
import pickle
import warnings

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core import artifacts as artifacts_module
from repro.core.artifacts import ArtifactCache
from repro.core.parallel import ParallelRunner
from repro.core.runner import SimulationRunner
from repro.errors import ExperimentError
from repro.trace.generator import GENERATOR_VERSION

TRACE = 8_000
WARMUP = 1_000
SEED = 7


class TestKeying:
    def test_key_includes_all_inputs(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        base = cache.entry_dir("li", TRACE, SEED)
        assert cache.entry_dir("li", TRACE + 1, SEED) != base
        assert cache.entry_dir("li", TRACE, SEED + 1) != base
        assert cache.entry_dir("gcc", TRACE, SEED) != base
        assert f"g{GENERATOR_VERSION}" in base.name

    def test_unsafe_workload_names_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for bad in ("", "../evil", "a/b", ".hidden"):
            with pytest.raises(ExperimentError):
                cache.entry_dir(bad, TRACE, SEED)

    def test_disabled_cache_is_passthrough(self):
        cache = ArtifactCache(None)
        assert not cache.enabled
        assert cache.load("li", TRACE, SEED) is None
        with pytest.raises(ExperimentError):
            cache.entry_dir("li", TRACE, SEED)


class TestRoundTrip:
    def test_get_or_build_then_load(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load("li", TRACE, SEED) is None
        program, trace = cache.get_or_build("li", TRACE, SEED)
        cached = cache.load("li", TRACE, SEED)
        assert cached is not None
        cached_program, cached_trace = cached
        assert cached_program.name == program.name
        assert cached_trace.records == trace.records
        assert cached_trace.seed == trace.seed

    def test_warm_load_simulates_identically(self, tmp_path):
        from repro.core.engine import simulate

        cache = ArtifactCache(tmp_path)
        program, trace = cache.get_or_build("li", TRACE, SEED)
        warm_program, warm_trace = cache.get_or_build("li", TRACE, SEED)
        config = SimConfig(policy=FetchPolicy.RESUME, prefetch=True)
        assert simulate(warm_program, warm_trace, config, warmup=WARMUP) == (
            simulate(program, trace, config, warmup=WARMUP)
        )


class TestCorruptionIsAMiss:
    @pytest.fixture
    def populated(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.get_or_build("li", TRACE, SEED)
        return cache, cache.entry_dir("li", TRACE, SEED)

    def test_truncated_trace(self, populated):
        cache, entry = populated
        payload = (entry / "trace.npz").read_bytes()
        (entry / "trace.npz").write_bytes(payload[: len(payload) // 2])
        assert cache.load("li", TRACE, SEED) is None
        # ... and get_or_build transparently repairs the entry.
        program, trace = cache.get_or_build("li", TRACE, SEED)
        assert cache.load("li", TRACE, SEED) is not None

    def test_garbage_program_pickle(self, populated):
        cache, entry = populated
        (entry / "program.pkl").write_bytes(b"not a pickle")
        assert cache.load("li", TRACE, SEED) is None

    def test_wrong_object_pickled(self, populated):
        cache, entry = populated
        (entry / "program.pkl").write_bytes(pickle.dumps({"nope": 1}))
        assert cache.load("li", TRACE, SEED) is None

    def test_missing_file(self, populated):
        cache, entry = populated
        os.unlink(entry / "program.pkl")
        assert cache.load("li", TRACE, SEED) is None


class TestStoreFailure:
    """An OS-level write failure degrades the cache: warn once, count,
    disable; the failed write leaves no temp file and no torn entry."""

    def test_failed_trace_write(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        program, trace = cache.get_or_build("li", TRACE, SEED)
        entry = cache.entry_dir("li", TRACE, SEED)
        before = (entry / "trace.npz").read_bytes()

        def disk_fills_up(trace, path):
            with open(path, "wb") as handle:
                handle.write(b"PK\x03\x04 half an archive")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(artifacts_module, "save_trace", disk_fills_up)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.store("li", TRACE, SEED, program, trace)
            cache.store("li", TRACE, SEED + 1, program, trace)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "artifact cache disabled" in str(caught[0].message)
        assert cache.store_failures == 1
        assert not cache.enabled
        assert sorted(path.name for path in entry.iterdir()) == [
            "program.pkl", "trace.npz",
        ]
        assert (entry / "trace.npz").read_bytes() == before


class TestRunnerWiring:
    def test_cache_shared_across_runner_instances(self, tmp_path):
        config = SimConfig(policy=FetchPolicy.RESUME)
        cold = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            cache_dir=str(tmp_path),
        )
        cold_result = cold.run("li", config)
        assert cold.artifacts.load("li", TRACE, SEED) is not None
        warm = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            cache_dir=str(tmp_path),
        )
        assert warm.run("li", config) == cold_result

    def test_cached_results_match_uncached(self, tmp_path):
        config = SimConfig(policy=FetchPolicy.OPTIMISTIC, prefetch=True)
        plain = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=SEED)
        cached = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            cache_dir=str(tmp_path),
        )
        assert cached.run("li", config) == plain.run("li", config)
        # Second cached runner reads entirely from disk.
        warm = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            cache_dir=str(tmp_path),
        )
        assert warm.run("li", config) == plain.run("li", config)

    def test_warm_run_never_rebuilds(self, tmp_path, monkeypatch):
        """Regression: prepared() used to build the program before the
        trace lookup could satisfy it from the artifact cache."""
        import repro.program.workloads as workloads

        config = SimConfig(policy=FetchPolicy.RESUME)
        cold = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            cache_dir=str(tmp_path),
        )
        expected = cold.run("li", config)

        def explode(name, seed=None):
            raise AssertionError("warm run rebuilt the workload")

        monkeypatch.setattr(workloads, "build_workload", explode)
        warm = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            cache_dir=str(tmp_path),
        )
        assert warm.run("li", config) == expected

    def test_parallel_workers_share_cache(self, tmp_path):
        config = SimConfig(policy=FetchPolicy.RESUME)
        serial = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=SEED)
        runner = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            max_workers=2, cache_dir=str(tmp_path),
        )
        results = runner.run_jobs([("li", config), ("doduc", config)])
        assert results[0] == serial.run("li", config)
        assert results[1] == serial.run("doduc", config)
        cache = ArtifactCache(tmp_path)
        assert cache.load("li", TRACE, SEED) is not None
        assert cache.load("doduc", TRACE, SEED) is not None
        # Warm parallel pass: same results, straight from the cache.
        warm = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            max_workers=2, cache_dir=str(tmp_path),
        )
        assert warm.run_jobs([("li", config), ("doduc", config)]) == results


class TestRunnerMemoKeys:
    """Regression: the in-memory memos used to key on the bare name."""

    def test_mutating_seed_invalidates(self):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=SEED)
        first = runner.trace("li")
        runner.seed = SEED + 1
        second = runner.trace("li")
        assert second.seed == SEED + 1
        assert second.records != first.records

    def test_mutating_trace_length_invalidates(self):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=SEED)
        first = runner.trace("li")
        runner.trace_length = TRACE * 2
        second = runner.trace("li")
        assert second.n_instructions >= TRACE * 2 > first.n_instructions

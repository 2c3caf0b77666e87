"""Differential tests for prediction-stream replay.

The tentpole claim: under the ``"architectural"`` branch schedule (or a
perfect cache), one recorded :class:`PredictionStream` replayed through
the ``build_branch_unit`` seam produces **bit-identical**
:class:`SimulationResult`s for every fetch policy, cache geometry,
associativity, warmup, and prefetch variant.  A real-cache
architectural cell has no live run left to compare with, so these tests
compare each replay with the digest the live predictor gave
(``tests/core/test_arch_pins.py``), and a perfect-cache replay with the
live run.  Then they pin the infrastructure around replay: persistence
round-trips, cache corruption handling, plan pool and service worker
wiring, metric parity, and the guards that keep ineligible configurations off the
replay path.
"""

from __future__ import annotations

import errno
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.artifacts import ArtifactCache
from repro.core.engine import simulate
import repro.core.worker as worker_module
from repro.core.runner import SimulationRunner
from repro.core.worker import serve_cell
from repro.branch.stream import (
    PredictionStream,
    ReplayBranchUnit,
    build_stream,
    replay_eligible,
    stream_digest,
)
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.profile import PhaseProfiler
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace
from tests.core.test_arch_pins import (
    PINNED,
    SEED,
    VARIANTS,
    WORKLOADS,
    cell_sha256,
    run_cell,
)

TRACE_LENGTH = WORKLOADS["gcc"]


def arch(**kwargs) -> SimConfig:
    return SimConfig(branch_schedule="architectural", **kwargs)


@pytest.fixture(scope="module")
def workload():
    program = build_workload("gcc", seed=SEED)
    trace = generate_trace(program, n_instructions=TRACE_LENGTH, seed=SEED)
    return program, trace


@pytest.fixture(scope="module")
def stream(workload):
    program, trace = workload
    return build_stream(program, trace, arch())


# -- the tentpole: replay == the live predictor's pin, bit for bit -----------


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_replay_bit_identical_per_policy(workload, stream, policy):
    program, trace = workload
    replay = run_cell(program, trace, arch(policy=policy), stream=stream)
    assert replay == PINNED[f"policy/{policy.value}"]


@pytest.mark.parametrize(
    "variant", list(VARIANTS), ids=lambda name: ",".join(sorted(VARIANTS[name]))
)
def test_replay_bit_identical_variants(workload, stream, variant):
    # One shared stream serves every cache geometry and prefetch variant:
    # the whole point of excluding cache/policy knobs from the digest.
    program, trace = workload
    config = arch(**{"policy": FetchPolicy.RESUME, **VARIANTS[variant]})
    replay = run_cell(program, trace, config, stream=stream)
    assert replay == PINNED[f"variant/{variant}"]


@pytest.mark.parametrize("warmup", [0, 2_500])
def test_replay_bit_identical_with_warmup(workload, stream, warmup):
    program, trace = workload
    config = arch(policy=FetchPolicy.PESSIMISTIC)
    replay = run_cell(program, trace, config, warmup=warmup, stream=stream)
    assert replay == PINNED[f"warmup/{warmup}"]


def test_perfect_cache_timing_replay(workload):
    # Perfect-cache cells are replay-eligible even on the default timing
    # schedule: with no cache stalls the fetch clock IS the architectural
    # clock (the Table 3 anchor).
    program, trace = workload
    config = SimConfig(perfect_cache=True)
    assert replay_eligible(config)
    stream = build_stream(program, trace, config)
    assert simulate(program, trace, config) == simulate(
        program, trace, config, stream=stream
    )


@pytest.mark.parametrize("name", ("gcc", "li"))
def test_perfect_cache_schedules_coincide(name):
    # With a perfect cache the fetch clock is the architectural clock, so
    # an architectural-schedule cell runs live and trains the predictor on
    # it, and matches the timing-schedule cell, registry and all.
    # build_stream records on that clock.
    program = build_workload(name, seed=SEED)
    trace = generate_trace(program, n_instructions=60_000, seed=SEED)
    for policy in ALL_POLICIES:
        runs = []
        for schedule in ("timing", "architectural"):
            config = SimConfig(
                policy=policy, perfect_cache=True, branch_schedule=schedule
            )
            observer = Observer()
            result = simulate(
                program, trace, config, warmup=10_000, observer=observer
            )
            runs.append((result, observer.metrics_dict()))
        (timing, timing_metrics), (arch_result, arch_metrics) = runs
        assert replace(arch_result, config=timing.config) == timing, policy
        assert arch_metrics == timing_metrics, policy


def test_one_stream_reused_across_cells(workload, stream):
    # Replaying many cells must not mutate the stream: rewind restores it.
    program, trace = workload
    first = simulate(program, trace, arch(), stream=stream)
    for policy in ALL_POLICIES:
        simulate(program, trace, arch(policy=policy), stream=stream)
    assert simulate(program, trace, arch(), stream=stream) == first


def test_metrics_identical_live_vs_replay(workload, stream):
    # The pin holds the live predictor's result and registry; the replay
    # here runs on the event loop (the per-policy cells above may take
    # the vector backend).
    program, trace = workload
    config = arch(policy=FetchPolicy.RESUME, engine_backend="event")
    assert run_cell(program, trace, config, stream=stream) == PINNED[
        "policy/resume"
    ]


# -- guards ------------------------------------------------------------------


def test_timing_real_cache_not_eligible():
    assert not replay_eligible(SimConfig())
    assert replay_eligible(arch())


def test_engine_rejects_stream_for_ineligible_config(workload, stream):
    program, trace = workload
    with pytest.raises(SimulationError, match="replay requires"):
        simulate(program, trace, SimConfig(), stream=stream)


def test_engine_rejects_wrong_digest(workload, stream):
    program, trace = workload
    config = arch(resolve_cycles=SimConfig().resolve_cycles + 2)
    assert stream_digest(config) != stream.digest
    with pytest.raises(SimulationError, match="digest"):
        simulate(program, trace, config, stream=stream)


def test_stream_rejects_wrong_trace(workload, stream):
    program, _ = workload
    other = generate_trace(program, n_instructions=4_000, seed=SEED)
    with pytest.raises(SimulationError, match="cannot replay"):
        simulate(program, other, arch(), stream=stream)


def test_exhausted_stream_raises(workload, stream):
    program, trace = workload
    truncated = replace(
        stream,
        results=stream.results[:4],
        walks={e: walk for e, walk in stream.walks.items() if e < 4},
    )
    with pytest.raises(SimulationError, match="exhausted"):
        simulate(program, trace, arch(), stream=truncated)


def test_branch_schedule_validated():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="branch_schedule"):
        SimConfig(branch_schedule="speculative")


# -- persistence -------------------------------------------------------------


class TestPersistence:
    def test_save_load_round_trip(self, workload, stream, tmp_path):
        directory = tmp_path / "stream"
        stream.save(directory)
        loaded = PredictionStream.load(directory)
        assert loaded == stream
        program, trace = workload
        assert simulate(program, trace, arch(), stream=loaded) == simulate(
            program, trace, arch(), stream=stream
        )

    def test_artifact_cache_round_trip(self, workload, stream, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_stream("gcc", TRACE_LENGTH, SEED, stream)
        loaded = cache.load_stream("gcc", TRACE_LENGTH, SEED, stream.digest)
        assert loaded is not None
        assert loaded.n_records == stream.n_records

    def test_corruption_is_a_miss(self, workload, stream, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_stream("gcc", TRACE_LENGTH, SEED, stream)
        directory = cache.stream_dir("gcc", TRACE_LENGTH, SEED, stream.digest)
        (directory / "outcome.npy").write_bytes(b"garbage")
        assert cache.load_stream("gcc", TRACE_LENGTH, SEED, stream.digest) is None

    def test_disordered_walk_offsets_are_a_miss(self, workload, stream, tmp_path):
        # Well-formed arrays whose offsets would hand walks to the wrong
        # records: a miss, not a stream with other results.
        cache = ArtifactCache(tmp_path)
        cache.store_stream("gcc", TRACE_LENGTH, SEED, stream)
        directory = cache.stream_dir("gcc", TRACE_LENGTH, SEED, stream.digest)
        wp_off = np.load(directory / "wp_off.npy")
        wp_off[1:] = wp_off[1:][::-1].copy()
        np.save(directory / "wp_off.npy", wp_off)
        assert cache.load_stream("gcc", TRACE_LENGTH, SEED, stream.digest) is None

    def test_identity_mismatch_is_a_miss(self, workload, stream, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_stream("gcc", TRACE_LENGTH, SEED, stream)
        assert cache.load_stream("gcc", TRACE_LENGTH, SEED + 1, stream.digest) is None
        assert cache.load_stream("gcc", TRACE_LENGTH, SEED, "0" * 16) is None
        # Longer trace than recorded: the stream cannot cover it.
        assert (
            cache.load_stream("gcc", TRACE_LENGTH * 2, SEED, stream.digest) is None
        )

    def test_failed_stream_write_degrades(self, stream, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)

        def disk_fills_up(path, array):
            with open(path, "wb") as handle:
                handle.write(b"\x93NUMPY half an array")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "save", disk_fills_up)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.store_stream("gcc", TRACE_LENGTH, SEED, stream)
            cache.store_stream("gcc", TRACE_LENGTH, SEED, stream)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert cache.store_failures == 1
        assert not cache.enabled
        directory = cache.stream_dir("gcc", TRACE_LENGTH, SEED, stream.digest)
        assert list(directory.parent.iterdir()) == []  # no temp dir left

    def test_concurrent_stream_writer_wins_quietly(self, stream, tmp_path):
        first, second = ArtifactCache(tmp_path), ArtifactCache(tmp_path)
        first.store_stream("gcc", TRACE_LENGTH, SEED, stream)
        second.store_stream("gcc", TRACE_LENGTH, SEED, stream)
        assert second.store_failures == 0 and second.enabled
        directory = first.stream_dir("gcc", TRACE_LENGTH, SEED, stream.digest)
        assert [path.name for path in directory.parent.iterdir()] == [
            directory.name
        ]
        loaded = second.load_stream("gcc", TRACE_LENGTH, SEED, stream.digest)
        assert loaded is not None

    def test_prune_reclaims_stale_streams(self, stream, tmp_path):
        import json

        cache = ArtifactCache(tmp_path)
        cache.store_stream("gcc", TRACE_LENGTH, SEED, stream)
        current = cache.stream_dir("gcc", TRACE_LENGTH, SEED, stream.digest)
        stale = current.parent / f"stream-f0-{stream.digest}"
        stale.mkdir()
        (stale / "meta.json").write_text(json.dumps({"format": 0}))
        stats = cache.prune()
        assert stats.entries == 1
        assert stats.bytes_freed > 0
        assert not stale.exists()
        assert current.is_dir()


# -- runner / parallel wiring ------------------------------------------------


class TestRunnerWiring:
    def test_serial_runner_replays_eligible_cells(self, tmp_path):
        obs = Observer(profiler=PhaseProfiler())
        runner = SimulationRunner(
            trace_length=TRACE_LENGTH, seed=SEED, warmup=1_000,
            observer=obs, cache_dir=str(tmp_path),
        )
        results = runner.run_policies("gcc", arch())
        assert obs.registry.value("stream.builds") == 1
        assert obs.registry.value("stream.replays") == len(ALL_POLICIES)
        # Bypass for an ineligible (timing, real-cache) cell: no replay.
        runner.run("gcc", SimConfig())
        assert obs.registry.value("stream.replays") == len(ALL_POLICIES)
        # Every replayed cell is the live predictor's, bit for bit.
        for policy, result in results.items():
            assert cell_sha256(result) == PINNED[f"runner/{policy.value}"]

    def test_second_runner_hits_stream_cache(self, tmp_path):
        first = SimulationRunner(
            trace_length=TRACE_LENGTH, seed=SEED, warmup=1_000,
            cache_dir=str(tmp_path),
        )
        first.run("gcc", arch())
        obs = Observer()
        second = SimulationRunner(
            trace_length=TRACE_LENGTH, seed=SEED, warmup=1_000,
            observer=obs, cache_dir=str(tmp_path),
        )
        second.run("gcc", arch())
        assert obs.registry.value("stream.cache_hits") == 1
        assert obs.registry.value("stream.builds") == 0

    def test_corrupt_cached_stream_rebuilt(self, tmp_path):
        first = SimulationRunner(
            trace_length=TRACE_LENGTH, seed=SEED, warmup=1_000,
            cache_dir=str(tmp_path),
        )
        baseline = first.run("gcc", arch())
        directory = first.artifacts.stream_dir(
            "gcc", TRACE_LENGTH, SEED, stream_digest(arch())
        )
        (directory / "penalty.npy").write_bytes(b"junk")
        obs = Observer()
        second = SimulationRunner(
            trace_length=TRACE_LENGTH, seed=SEED, warmup=1_000,
            observer=obs, cache_dir=str(tmp_path),
        )
        assert second.run("gcc", arch()) == baseline
        assert obs.registry.value("stream.builds") == 1
        assert obs.registry.value("stream.cache_hits") == 0


class TestParallelWiring:
    """The plan pool (``SimulationRunner.run_jobs``) and the service
    worker (``serve_cell``) replay what the serial runner replays."""

    JOBS = [
        ("li", arch(policy=policy)) for policy in ALL_POLICIES
    ] + [("li", SimConfig())]

    @staticmethod
    def _pooled(cache_dir):
        return SimulationRunner(
            trace_length=6_000, seed=SEED, warmup=500,
            observer=Observer(profiler=PhaseProfiler()), cache_dir=cache_dir,
        )

    @staticmethod
    def _serve(name, config, cache_dir):
        return serve_cell((name, config, 6_000, 500, SEED, cache_dir, None))

    @staticmethod
    def _watch_worker(monkeypatch):
        """Count the worker's stream recordings and keep the stream each
        cell was simulated with."""
        builds, streams = [], []
        real_build = worker_module.build_stream
        real_simulate = worker_module.simulate

        def counting_build(*args):
            builds.append(args[2])
            return real_build(*args)

        def watching_simulate(*args, stream=None, **kwargs):
            streams.append(stream)
            return real_simulate(*args, stream=stream, **kwargs)

        monkeypatch.setattr(worker_module, "build_stream", counting_build)
        monkeypatch.setattr(worker_module, "simulate", watching_simulate)
        return builds, streams

    def test_parallel_matches_serial_with_replay(self, tmp_path, plan_pool):
        obs = Observer(profiler=PhaseProfiler())
        serial = SimulationRunner(
            trace_length=6_000, seed=SEED, warmup=500,
            observer=obs, cache_dir=str(tmp_path / "serial"),
        )
        serial_results = [serial.run(n, c) for n, c in self.JOBS]
        pooled = self._pooled(str(tmp_path / "parallel"))
        assert pooled.run_jobs(self.JOBS) == serial_results
        registry = pooled.observer.registry
        assert registry.value("sweep.plan_tasks") == len(self.JOBS)
        for key in ("stream.builds", "stream.cache_hits", "stream.replays"):
            assert registry.value(key) == obs.registry.value(key), key

    def test_workers_mmap_cached_streams(self, tmp_path, plan_pool, monkeypatch):
        cache_dir = str(tmp_path / "shared")
        first = self._pooled(cache_dir)
        baseline = first.run_jobs(self.JOBS)
        assert first.observer.registry.value("stream.builds") == 1
        # The stream landed in the shared cache...
        digest = stream_digest(arch())
        directory = ArtifactCache(cache_dir).stream_dir(
            "li", 6_000, SEED, digest
        )
        assert (directory / "meta.json").is_file()
        # ...a second sweep loads it instead of rebuilding...
        second = self._pooled(cache_dir)
        assert second.run_jobs(self.JOBS) == baseline
        assert second.observer.registry.value("stream.builds") == 0
        assert second.observer.registry.value("stream.cache_hits") == 1
        # ...and the service worker loads it.
        builds, streams = self._watch_worker(monkeypatch)
        for (name, config), expected in zip(self.JOBS, baseline):
            assert self._serve(name, config, cache_dir) == expected
        assert builds == []
        assert all(stream is not None for stream in streams[:-1])
        assert streams[-1] is None  # the timing-schedule cell

    def test_lone_perfect_cache_cells_run_live(self, tmp_path, monkeypatch):
        # A stream no cache holds costs more to record than its
        # perfect-cache cell costs live: the worker runs it live and
        # stores no stream.
        builds, streams = self._watch_worker(monkeypatch)
        config = SimConfig(perfect_cache=True)
        for name in ("gcc", "doduc"):
            self._serve(name, config, str(tmp_path))
            directory = ArtifactCache(str(tmp_path)).stream_dir(
                name, 6_000, SEED, stream_digest(config)
            )
            assert not directory.exists()
        assert builds == [] and streams == [None, None]

    def test_lone_real_cache_cell_replays_its_recording(
        self, tmp_path, monkeypatch
    ):
        # A real-cache architectural cell always replays: the worker
        # records its stream and stores it for the next request, which
        # loads it instead.
        builds, streams = self._watch_worker(monkeypatch)
        config = arch(policy=FetchPolicy.RESUME)
        for _ in range(2):
            result = self._serve("li", config, str(tmp_path))
            assert cell_sha256(result) == PINNED["parallel/resume"]
            assert len(builds) == 1
        assert len(streams) == 2 and None not in streams

    def test_parallel_replay_matches_pins(self, tmp_path, plan_pool):
        runner = self._pooled(str(tmp_path / "pool"))
        results = runner.run_jobs(self.JOBS)
        assert runner.observer.registry.value("sweep.plan_tasks") == len(
            self.JOBS
        )
        for (name, config), result in zip(self.JOBS, results):
            if config.branch_schedule == "architectural":
                pin = PINNED[f"parallel/{config.policy.value}"]
                assert cell_sha256(result) == pin
                served = self._serve(name, config, str(tmp_path / "service"))
                assert cell_sha256(served) == pin


# -- replay facade details ---------------------------------------------------


def test_facade_publishes_live_schema(workload, stream):
    program, trace = workload
    config = arch()
    unit = ReplayBranchUnit(stream, config)
    engine_registry = MetricsRegistry()
    unit.publish_metrics(engine_registry)
    # Before any prediction: all-zero counters with the live schema.
    assert engine_registry.value("branch.conditional") == 0
    assert engine_registry.value("branch.correct") == 0


def test_stream_build_event_emitted(tmp_path):
    from repro.obs.events import RingBufferSink, StreamBuild

    sink = RingBufferSink()
    obs = Observer(sink=sink, profiler=PhaseProfiler())
    runner = SimulationRunner(
        trace_length=6_000, seed=SEED, warmup=500, observer=obs,
        cache_dir=str(tmp_path),
    )
    runner.run("li", arch())
    events = sink.of_type(StreamBuild)
    assert len(events) == 1
    assert events[0].source == "build"
    assert events[0].records > 0

"""Differential determinism: serial vs parallel, results and metrics.

The parallel runner must be an implementation detail: for the same
(trace_length, seed, warmup) a sweep gives bit-identical
``SimulationResult``s and — when both sides collect metrics — identical
merged registries, across all five fetch policies.
"""

import pytest

from repro.config import ALL_POLICIES, SimConfig
from repro.core.parallel import ParallelRunner
from repro.core.runner import SimulationRunner
from repro.obs import Observer

TRACE = 15_000
WARMUP = 3_000
SEED = 7
BENCHMARKS = ("gcc", "li")


@pytest.mark.slow
class TestSerialParallelDifferential:
    @pytest.fixture(scope="class")
    def matrices(self):
        observer = Observer()
        serial = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED, observer=observer
        )
        parallel = ParallelRunner(
            trace_length=TRACE,
            warmup=WARMUP,
            seed=SEED,
            max_workers=2,
            collect_metrics=True,
        )
        config = SimConfig(prefetch=True)
        serial_matrix = serial.run_matrix(BENCHMARKS, config)
        parallel_matrix = parallel.run_matrix(BENCHMARKS, config)
        return serial_matrix, parallel_matrix, observer, parallel

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_results_bit_identical(self, matrices, policy):
        serial_matrix, parallel_matrix, _, _ = matrices
        for name in BENCHMARKS:
            assert serial_matrix[name][policy] == parallel_matrix[name][policy]

    def test_merged_metrics_identical(self, matrices):
        _, _, observer, parallel = matrices
        assert observer.registry.as_dict() == parallel.metrics.as_dict()

    def test_metrics_nonempty(self, matrices):
        _, _, observer, _ = matrices
        assert observer.registry.value("engine.instructions") > 0

    def test_parallel_profile_covers_phases(self, matrices):
        _, _, _, parallel = matrices
        summary = parallel.profile.summary()
        assert {"build_program", "generate_trace", "simulate"} <= set(summary)
        # one simulate phase entry per (benchmark, policy) cell, matching
        # the serial runner's per-config phase granularity
        assert summary["simulate"]["calls"] == len(BENCHMARKS) * len(ALL_POLICIES)


@pytest.mark.slow
def test_parallel_reruns_reset_metrics():
    """run_jobs must not leak metrics from a previous sweep."""
    parallel = ParallelRunner(
        trace_length=TRACE,
        warmup=WARMUP,
        seed=SEED,
        max_workers=2,
        collect_metrics=True,
    )
    jobs = [("gcc", SimConfig()), ("li", SimConfig())]
    parallel.run_jobs(jobs)
    # A rerun is served from the result memo: its registry holds its own
    # hits and nothing of the first sweep's simulations.
    parallel.run_jobs(jobs)
    assert parallel.metrics.as_dict() == {"sweep.result_hits": len(jobs)}
    # New cells on the same runner publish exactly what a fresh runner's
    # sweep of them does.
    more = [("gcc", SimConfig(prefetch=True)), ("li", SimConfig(prefetch=True))]
    parallel.run_jobs(more)
    fresh = ParallelRunner(
        trace_length=TRACE,
        warmup=WARMUP,
        seed=SEED,
        max_workers=2,
        collect_metrics=True,
    )
    fresh.run_jobs(more)
    assert parallel.metrics.as_dict() == fresh.metrics.as_dict()

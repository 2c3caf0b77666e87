"""Differential determinism: serial vs the plan pool, results and metrics.

The plan pool must be an implementation detail: for the same
(trace_length, seed, warmup) a sweep planned onto forked workers gives
bit-identical ``SimulationResult``s and an identical registry (bar the
``sweep.plan_*`` counters only a planned run publishes), across all five
fetch policies.
"""

import pytest

import repro.core.runner as runner_module
from repro.config import ALL_POLICIES, SimConfig
from repro.core.runner import SimulationRunner
from repro.obs import Observer, PhaseProfiler
from repro.obs.metrics import MetricsRegistry
from tests.conftest import without_plan_counters

TRACE = 15_000
WARMUP = 3_000
SEED = 7
BENCHMARKS = ("gcc", "li")

def _pooled():
    return SimulationRunner(
        trace_length=TRACE, warmup=WARMUP, seed=SEED,
        observer=Observer(profiler=PhaseProfiler()),
    )


@pytest.mark.slow
class TestSerialParallelDifferential:
    @pytest.fixture(scope="class")
    def matrices(self):
        observer = Observer()
        serial = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED, observer=observer
        )
        config = SimConfig(prefetch=True)
        serial_matrix = serial.run_matrix(BENCHMARKS, config)
        patch = pytest.MonkeyPatch()
        patch.setattr(runner_module, "_plan_workers", lambda: 2)
        try:
            pooled = _pooled()
            pooled.run_many(
                (name, config.with_policy(policy))
                for name in BENCHMARKS for policy in ALL_POLICIES
            )
            pooled_matrix = pooled.run_matrix(BENCHMARKS, config)
        finally:
            patch.undo()
        return serial_matrix, pooled_matrix, observer, pooled

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_results_bit_identical(self, matrices, policy):
        serial_matrix, pooled_matrix, _, _ = matrices
        for name in BENCHMARKS:
            assert serial_matrix[name][policy] == pooled_matrix[name][policy]

    def test_merged_metrics_identical(self, matrices):
        _, _, observer, pooled = matrices
        registry = pooled.observer.registry
        assert registry.value("sweep.plan_tasks") == (
            len(BENCHMARKS) * len(ALL_POLICIES)
        )
        assert observer.registry.as_dict() == without_plan_counters(registry)

    def test_metrics_nonempty(self, matrices):
        _, _, observer, _ = matrices
        assert observer.registry.value("engine.instructions") > 0

    def test_parallel_profile_covers_phases(self, matrices):
        _, _, _, pooled = matrices
        summary = pooled.observer.profiler.summary()
        assert {"build_program", "generate_trace", "pool.simulate"} <= set(
            summary
        )
        # one simulate phase entry per (benchmark, policy) cell, matching
        # the serial runner's per-config phase granularity
        assert summary["pool.simulate"]["calls"] == (
            len(BENCHMARKS) * len(ALL_POLICIES)
        )


@pytest.mark.slow
def test_parallel_reruns_reset_metrics(plan_pool):
    """A rerun on the plan pool publishes nothing of an earlier sweep."""
    pooled = _pooled()
    jobs = [("gcc", SimConfig()), ("li", SimConfig())]
    pooled.run_jobs(jobs)
    # A rerun is served from the result memo: it adds its own hits and
    # nothing else.
    before = pooled.observer.registry.as_dict()
    pooled.run_jobs(jobs)
    after = pooled.observer.registry.as_dict()
    assert {
        name: after[name] - before.get(name, 0)
        for name in after if after[name] != before.get(name)
    } == {"sweep.result_hits": len(jobs)}
    # New cells on the same runner publish exactly what a fresh runner's
    # sweep of them does.
    more = [("gcc", SimConfig(prefetch=True)), ("li", SimConfig(prefetch=True))]
    before = pooled.observer.registry.as_dict()
    pooled.run_jobs(more)
    after = pooled.observer.registry.as_dict()
    fresh = _pooled()
    fresh.run_jobs(more)
    merged = MetricsRegistry.from_dict(before).merge(fresh.observer.registry)
    assert merged.as_dict() == after

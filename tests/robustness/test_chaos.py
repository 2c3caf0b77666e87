"""Chaos suite: faulted sweeps must recover *bit-identically*.

The headline property of the fault-tolerance layer: a sweep bombarded
with recoverable faults (crashes, delays, cache corruption) returns
exactly the results of a fault-free serial sweep.  A runner under a
fault plan runs in process, so faults fire in request order; the pooled
barrage, hard worker exits included, runs through the sweep service
(``tests/service/test_pooled_chaos.py``).
"""

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.runner import SimulationRunner
from repro.obs import Observer

TRACE = 3_000
WARMUP = 600
SEED = 7

JOBS = [
    ("li", SimConfig(policy=FetchPolicy.ORACLE)),
    ("li", SimConfig(policy=FetchPolicy.RESUME)),
    ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
    ("doduc", SimConfig(policy=FetchPolicy.PESSIMISTIC)),
]


@pytest.fixture(scope="module")
def serial_reference():
    """Fault-free serial sweep with an observer (results + metrics)."""
    observer = Observer()
    runner = SimulationRunner(
        trace_length=TRACE, warmup=WARMUP, seed=SEED, observer=observer
    )
    results = [runner.run(name, config) for name, config in JOBS]
    return results, observer.registry


def _assert_results_identical(faulted, reference):
    for mine, theirs in zip(faulted, reference, strict=True):
        assert mine.program == theirs.program
        assert mine.penalties.as_dict() == theirs.penalties.as_dict()
        assert mine.counters.instructions == theirs.counters.instructions
        assert mine.counters.right_misses == theirs.counters.right_misses
        assert mine.total_ispi == theirs.total_ispi
        assert mine.ispi_breakdown() == theirs.ispi_breakdown()


class TestChaos:
    def test_seeded_chaos_recovers(self, tmp_path, serial_reference):
        """A pseudo-random (but reproducible) plan of recoverable faults."""
        reference, _ = serial_reference
        plan = FaultPlan.seeded(
            1995,
            str(tmp_path / "faults"),
            benchmarks=("li", "doduc"),
            n_faults=5,
        )
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            cache_dir=str(tmp_path / "cache"),
            retries=5, backoff_base=0.0, fault_plan=plan,
        )
        _assert_results_identical(runner.run_jobs(JOBS), reference)

    def test_faulted_checkpointed_resume_matches(
        self, tmp_path, serial_reference, plan_pool
    ):
        """Faults during the first pass, resume on the second: still
        bit-identical, and the resume replays from the journal."""
        reference, _ = serial_reference
        checkpoint = str(tmp_path / "ckpt")
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="crash", times=2)],
            state_dir=str(tmp_path / "faults"),
        )
        first = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            retries=3, backoff_base=0.0, checkpoint_dir=checkpoint,
            fault_plan=plan,
        )
        _assert_results_identical(first.run_jobs(JOBS), reference)
        observer = Observer()
        second = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=SEED,
            checkpoint_dir=checkpoint, observer=observer,
        )
        _assert_results_identical(second.run_jobs(JOBS), reference)
        assert observer.registry.value("checkpoint.hits") == len(JOBS)
        assert observer.registry.value("sweep.plan_tasks") == 0

"""Bench: fault-tolerance guarantees and their overhead (regression guard).

Two guards ride the benchmark harness:

* the recovery guarantee — a pooled sweep under an injected-fault
  barrage must complete bit-identically to a fault-free serial run
  (delegated to ``tools/check_robustness.py``), and
* the no-fault overhead — with no faults injected and fault tolerance at
  its defaults, the fault-tolerant sweep path must not measurably slow
  a clean sweep (the machinery is all at cell granularity).
"""

import os
import subprocess
import sys
import time

from repro.config import FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner


def test_faulted_sweep_recovers_bit_identically():
    """Delegates to tools/check_robustness.py in a subprocess."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "check_robustness.py")],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, (
        f"robustness check failed:\n{proc.stdout}\n{proc.stderr}"
    )


def test_no_fault_overhead_is_negligible():
    """Retry/checkpoint plumbing must cost nothing on the happy path.

    Compares a clean ``run_jobs`` sweep with retries disabled against
    one with the full fault-tolerance configuration armed (retries,
    watchdog, backoff) but no faults injected.  Both do identical
    simulation work; the armed run may only add per-cell bookkeeping, so
    it must land within 25% (generous: these sweeps are sub-second and
    noisy).
    """
    jobs = [
        ("li", SimConfig(policy=FetchPolicy.ORACLE)),
        ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
    ]

    def sweep(**kwargs):
        runner = SimulationRunner(
            trace_length=10_000, warmup=2_000, seed=7, **kwargs
        )
        started = time.perf_counter()
        results = runner.run_jobs(jobs)
        elapsed = time.perf_counter() - started
        return elapsed, results

    # Interleave and keep best-of-3 per mode to cancel machine drift.
    bare_best = armed_best = None
    for _ in range(3):
        bare, bare_results = sweep(retries=0)
        armed, armed_results = sweep(retries=3, job_timeout=300.0)
        bare_best = bare if bare_best is None else min(bare_best, bare)
        armed_best = armed if armed_best is None else min(armed_best, armed)
    for mine, theirs in zip(bare_results, armed_results, strict=True):
        assert mine.total_ispi == theirs.total_ispi
    assert armed_best <= bare_best * 1.25, (
        f"armed fault tolerance slowed a clean sweep: "
        f"{bare_best:.3f}s bare vs {armed_best:.3f}s armed"
    )

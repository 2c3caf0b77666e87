"""Fault-tolerance smoke check for the sweep layer.

Runs a small parallel sweep under an injected-fault barrage (worker
crash, hard process exit, delay, artifact-cache corruption) and asserts
that

* the sweep completes despite the faults (retries + pool rebuilds),
* every result is bit-identical to a fault-free serial run, and
* the recovery machinery actually engaged (faults fired, retries spent).

A resume leg then reruns the sweep with ``checkpoint_dir`` set, on the
serial and the parallel runner: a second, fresh runner on the same
directory must load every cell (``checkpoint.hits == len(jobs)``),
simulate nothing, and return the fault-free results bit-identically.

Usage::

    PYTHONPATH=src python tools/check_robustness.py
    PYTHONPATH=src python tools/check_robustness.py --trace-length 5000

The benchmark harness runs this as a subprocess (see
benchmarks/bench_robustness.py), so `pytest benchmarks/` enforces the
recovery guarantee alongside the performance budgets.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.config import FetchPolicy, SimConfig  # noqa: E402
from repro.core.faults import FaultPlan, FaultSpec  # noqa: E402
from repro.core.parallel import ParallelRunner  # noqa: E402
from repro.core.runner import SimulationRunner  # noqa: E402
from repro.obs import Observer, PhaseProfiler  # noqa: E402

SEED = 7


def _jobs():
    return [
        ("li", SimConfig(policy=FetchPolicy.ORACLE)),
        ("li", SimConfig(policy=FetchPolicy.RESUME)),
        ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
        ("doduc", SimConfig(policy=FetchPolicy.PESSIMISTIC)),
    ]


def _plan(state_dir: str) -> FaultPlan:
    return FaultPlan(
        faults=[
            FaultSpec(phase="simulate", kind="crash", benchmark="li"),
            FaultSpec(phase="build", kind="exit", benchmark="doduc"),
            FaultSpec(phase="generate", kind="delay", seconds=0.01),
            FaultSpec(phase="cache_load", kind="corrupt", benchmark="li"),
        ],
        state_dir=state_dir,
    )


def _diverged(results, reference) -> list[int]:
    """Indices of cells whose numbers differ from the reference run."""
    return [
        index
        for index, (mine, theirs) in enumerate(zip(results, reference))
        if mine.penalties.as_dict() != theirs.penalties.as_dict()
        or mine.total_ispi != theirs.total_ispi
        or mine.counters.instructions != theirs.counters.instructions
    ]


def _checkpointed_sweep(kind, directory, trace_length, warmup):
    """One sweep of ``_jobs()`` on a fresh *kind* runner storing results in
    *directory*: ``(results, checkpoint.hits, simulate phases)``."""
    if kind == "serial":
        observer = Observer(profiler=PhaseProfiler())
        runner = SimulationRunner(
            trace_length=trace_length, warmup=warmup, seed=SEED,
            observer=observer, checkpoint_dir=directory,
        )
        results = [runner.run(name, config) for name, config in _jobs()]
        metrics, profile = observer.registry, observer.profiler
    else:
        runner = ParallelRunner(
            trace_length=trace_length, warmup=warmup, seed=SEED,
            max_workers=2, collect_metrics=True, checkpoint_dir=directory,
        )
        results = runner.run_jobs(_jobs())
        metrics, profile = runner.metrics, runner.profile
    simulated = profile.summary().get("simulate", {}).get("calls", 0)
    return results, metrics.value("checkpoint.hits"), simulated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-length",
        type=int,
        default=3_000,
        help="dynamic instructions per benchmark (default %(default)s; "
        "the check is about recovery, not simulation scale)",
    )
    args = parser.parse_args(argv)
    trace_length = args.trace_length
    warmup = trace_length // 5

    serial = SimulationRunner(
        trace_length=trace_length, warmup=warmup, seed=SEED
    )
    reference = [serial.run(name, config) for name, config in _jobs()]

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        plan = _plan(os.path.join(scratch, "faults"))
        runner = ParallelRunner(
            trace_length=trace_length, warmup=warmup, seed=SEED,
            max_workers=2, retries=3, backoff_base=0.0,
            cache_dir=os.path.join(scratch, "cache"), fault_plan=plan,
        )
        results = runner.run_jobs(_jobs())
        fired = plan.fired_total()
        retries = runner.metrics.value("sweep.retries")
        rebuilds = runner.metrics.value("sweep.pool_rebuilds")

    print(
        f"faulted sweep: {len(results)} cells | {fired} faults fired | "
        f"{retries} retries | {rebuilds} pool rebuild(s)"
    )
    if fired < 3:
        failures.append(
            f"only {fired} faults fired; the barrage did not engage"
        )
    if retries < 1:
        failures.append("no retries were spent; recovery path never ran")
    for index in _diverged(results, reference):
        failures.append(
            f"cell {index} ({reference[index].program}) diverged from the "
            f"fault-free serial reference"
        )

    with tempfile.TemporaryDirectory() as scratch:
        for kind in ("serial", "parallel"):
            directory = os.path.join(scratch, kind)
            _checkpointed_sweep(kind, directory, trace_length, warmup)
            resumed, hits, simulated = _checkpointed_sweep(
                kind, directory, trace_length, warmup
            )
            print(
                f"{kind} resume: {hits} checkpoint hits | "
                f"{simulated} simulate phases"
            )
            if hits != len(_jobs()) or simulated:
                failures.append(
                    f"{kind} resume loaded {hits}/{len(_jobs())} cells and "
                    f"simulated {simulated}"
                )
            for index in _diverged(resumed, reference):
                failures.append(
                    f"{kind} resume: cell {index} diverged from the "
                    f"fault-free serial reference"
                )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "robustness check passed: faulted and resumed sweeps are "
        "bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

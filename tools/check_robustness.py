"""Fault-tolerance smoke check for the sweep layer.

Runs a small sweep through an in-process sweep service (its spawned
worker pool is the pool that takes fault plans) under an injected-fault
barrage (worker crash, hard process exit, delay, artifact-cache
corruption) and asserts that

* the sweep completes despite the faults (retries + pool rebuilds),
* every result is bit-identical to a fault-free serial run, and
* the recovery machinery actually engaged (faults fired, retries spent).

A resume leg then reruns the sweep with ``checkpoint_dir`` set, cell by
cell (``serial``) and through ``SimulationRunner.run_jobs`` on the plan
pool (``planned``, forced to two workers so a one-CPU host plans too):
the planned first pass must have used the pool (``sweep.plan_tasks >
0``), and a second, fresh runner on the same directory must load every
cell (``checkpoint.hits == len(jobs)``), simulate nothing, and return
the fault-free results bit-identically.

A kill leg SIGKILLs ``python -m repro table5 --checkpoint DIR`` (a
planned experiment, simulated by forked pool workers on a multi-core
host) once at least five cells are stored, then resumes it: the resumed
tables must be byte-identical to an undisturbed run, and no process of
the victim's process group may survive it.

Usage::

    PYTHONPATH=src python tools/check_robustness.py
    PYTHONPATH=src python tools/check_robustness.py --trace-length 5000

The benchmark harness runs this as a subprocess (see
benchmarks/bench_robustness.py), so `pytest benchmarks/` enforces the
recovery guarantee alongside the performance budgets.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.config import FetchPolicy, SimConfig  # noqa: E402
import repro.core.runner as runner_module  # noqa: E402
from repro.core.faults import FaultPlan, FaultSpec  # noqa: E402
from repro.core.runner import SimulationRunner  # noqa: E402
from repro.core.store import ResultStore  # noqa: E402
from repro.obs import Observer, PhaseProfiler  # noqa: E402
from repro.service.protocol import SweepRequest  # noqa: E402
from repro.service.server import SweepService  # noqa: E402

SEED = 7

#: Cells the kill leg waits for in the store before killing the victim.
KILL_AFTER_CELLS = 5


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


def _faulted_sweep(scratch, trace_length, warmup):
    """``_jobs()`` as one request to an in-process sweep service under
    the fault barrage: ``(results, faults fired, service)``."""
    plan = _plan(os.path.join(scratch, "faults"))
    service = SweepService(
        data_dir=os.path.join(scratch, "service"), max_workers=2, retries=3,
        backoff_base=0.0, fault_plan=plan,
    )
    request = SweepRequest(
        cells=tuple(_jobs()), trace_length=trace_length, warmup=warmup,
        seed=SEED,
    )

    async def serve():
        try:
            return await service.handle_sweep(request)
        finally:
            await service.close()

    response = asyncio.run(serve())
    return response.results, plan.fired_total(), service


def _checkpointed_sweep(kind, directory, trace_length, warmup):
    """One sweep of ``_jobs()`` on a fresh runner storing results in
    *directory*, cell by cell (``serial``) or through ``run_jobs`` on a
    forced two-worker plan pool (``planned``): ``(results,
    checkpoint.hits, simulate phases, plan tasks)``."""
    observer = Observer(profiler=PhaseProfiler())
    runner = SimulationRunner(
        trace_length=trace_length, warmup=warmup, seed=SEED,
        observer=observer, checkpoint_dir=directory,
    )
    if kind == "serial":
        results = [runner.run(name, config) for name, config in _jobs()]
    else:
        cpus = runner_module._plan_workers
        runner_module._plan_workers = lambda: 2
        try:
            results = runner.run_jobs(_jobs())
        finally:
            runner_module._plan_workers = cpus
    phases = observer.profiler.summary()
    simulated = sum(
        phases.get(phase, {}).get("calls", 0)
        for phase in ("simulate", "pool.simulate")
    )
    registry = observer.registry
    return (
        results, registry.value("checkpoint.hits"), simulated,
        registry.value("sweep.plan_tasks"),
    )


def _table5(trace_length, *extra):
    """Start ``python -m repro table5`` in a process group of its own."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "table5",
         "--trace-length", str(trace_length), "--seed", str(SEED), *extra],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, start_new_session=True,
    )


def _tables(output: str) -> str:
    """CLI output minus its bracketed timing and traffic lines."""
    return "\n".join(
        line for line in output.splitlines() if not line.startswith("[")
    )


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group *pgid* (Linux)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(int(entry.name))
    return members


def _kill_and_resume(trace_length: int) -> list[str]:
    """The kill leg: failures, or an empty list."""
    reference, _ = _table5(trace_length).communicate(timeout=600)
    with tempfile.TemporaryDirectory() as scratch:
        store = ResultStore(scratch)
        victim = _table5(trace_length, "--checkpoint", scratch)
        deadline = time.monotonic() + 300
        while (
            store.entries() < KILL_AFTER_CELLS
            and victim.poll() is None
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        victim.send_signal(signal.SIGKILL)
        victim.communicate()
        stored = store.entries()
        survivors = _group_members(victim.pid)
        deadline = time.monotonic() + 5
        while survivors and time.monotonic() < deadline:
            time.sleep(0.1)
            survivors = _group_members(victim.pid)
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        resumed = _table5(trace_length, "--checkpoint", scratch)
        output, _ = resumed.communicate(timeout=600)
    print(
        f"kill/resume: victim killed after {stored} stored cells | "
        f"{len(survivors)} survivor(s) | resume exit {resumed.returncode}"
    )
    failures = []
    if stored < KILL_AFTER_CELLS:
        failures.append(f"victim was killed after only {stored} stored cells")
    if survivors:
        failures.append(
            f"{len(survivors)} process(es) of the killed victim's group "
            f"outlived it: {survivors}"
        )
    if resumed.returncode != 0 or _tables(output) != _tables(reference):
        failures.append("resumed table5 output differs from an undisturbed run")
    return failures


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
        results, fired, service = _faulted_sweep(scratch, trace_length, warmup)
        retries = service.registry.value("service.retries")
        rebuilds = service.registry.value("service.pool_rebuilds")

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
        for kind in ("serial", "planned"):
            directory = os.path.join(scratch, kind)
            *_, planned = _checkpointed_sweep(
                kind, directory, trace_length, warmup
            )
            resumed, hits, simulated, _ = _checkpointed_sweep(
                kind, directory, trace_length, warmup
            )
            print(
                f"{kind} resume: {planned} plan tasks stored | {hits} "
                f"checkpoint hits | {simulated} simulate phases"
            )
            if kind == "planned" and planned < 1:
                failures.append(
                    "the planned checkpoint leg never used the plan pool"
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

    if sys.platform.startswith("linux"):
        failures += _kill_and_resume(trace_length)

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

"""Pool workers die with their parent, and with a hard teardown.

A fork-context pool worker inherits its call queue's write end, so it
never sees EOF when the parent is SIGKILLed; without a lifeline it
would outlive the parent indefinitely.  Each parametrized test SIGKILLs
a parent while its workers are busy and requires every worker gone 5 s
later.  The last test requires ``terminate_pool`` to kill a busy worker
at once, not when its task ends.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Victim prologue: every simulation hangs, so workers stay busy.
PROLOGUE = """
import time
import repro.core.runner as runner_module
from repro.config import ALL_POLICIES, SimConfig

def hang(*args, **kwargs):
    time.sleep(600)

runner_module.simulate = hang
runner_module._plan_workers = lambda: 2
cells = [(name, SimConfig(policy=policy))
         for name in ("gcc", "doduc") for policy in ALL_POLICIES]
"""

RUN_JOBS = """
from repro.core.runner import SimulationRunner
SimulationRunner(trace_length=2000, warmup=0).run_jobs(cells)
"""

RUN_MANY = """
from repro.core.runner import SimulationRunner
SimulationRunner(trace_length=2000, warmup=0).run_many(cells)
"""


def _children(pid: int) -> list[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return children


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.parametrize("body", [RUN_JOBS, RUN_MANY], ids=["run_jobs", "run_many"])
def test_workers_die_with_a_killed_parent(body):
    script = textwrap.dedent(PROLOGUE) + textwrap.dedent(body)
    victim = subprocess.Popen(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            assert victim.poll() is None, "victim exited early"
            time.sleep(0.05)
            workers = _children(victim.pid)
        assert len(workers) >= 2, "the victim never started its workers"
        time.sleep(0.5)  # let the workers pick up their hanging tasks
    finally:
        victim.send_signal(signal.SIGKILL)
        victim.wait()
    time.sleep(5)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == []


def test_terminate_pool_kills_busy_workers():
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.lifeline import terminate_pool

    pool = ProcessPoolExecutor(max_workers=1)
    pool.submit(os.getpid).result(timeout=60)  # the worker is up
    workers = list(pool._processes.values())
    pool.submit(time.sleep, 600)
    time.sleep(0.2)  # let the worker pick up its sleep
    started = time.monotonic()
    terminate_pool(pool)
    assert time.monotonic() - started < 10
    assert workers and not any(proc.is_alive() for proc in workers)

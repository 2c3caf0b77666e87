"""Harness for the sweep-service suite.

Two layers of fixtures:

* a per-test deadline (same rationale as ``tests/robustness``: these
  tests exercise hang/kill/retry paths, and ``pytest-timeout`` is not
  available — ``faulthandler.dump_traceback_later`` dumps all stacks and
  hard-exits instead of wedging the run);
* ``start_server`` — a real ``python -m repro.service`` subprocess bound
  to an ephemeral port, its address parsed from the announce line.  The
  chaos scenarios need a separate process (injected ``exit`` faults kill
  it; restart-recovery restarts it), so the HTTP tests use the same
  shape.
"""

from __future__ import annotations

import contextlib
import faulthandler
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.obs import Observer

#: Generous per-test deadline; anything near it is a genuine hang.
DEADLINE_SECONDS = 180.0

#: Shared sweep geometry for the whole suite (mirrors tests/robustness).
TRACE = 3_000
WARMUP = 600
SEED = 7

JOBS = [
    ("li", SimConfig(policy=FetchPolicy.ORACLE)),
    ("li", SimConfig(policy=FetchPolicy.RESUME)),
    ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
    ("doduc", SimConfig(policy=FetchPolicy.PESSIMISTIC)),
]

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Seconds ``ServerProcess.stop`` waits for a graceful exit before it
#: kills the server's process group.
STOP_GRACE_SECONDS = 5.0


@pytest.fixture(autouse=True)
def _test_deadline():
    if not hasattr(faulthandler, "dump_traceback_later"):  # pragma: no cover
        yield
        return
    faulthandler.dump_traceback_later(DEADLINE_SECONDS, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def assert_results_identical(mine, reference):
    """Bit-identity of the numbers every table is rendered from."""
    for ours, theirs in zip(mine, reference, strict=True):
        assert ours.program == theirs.program
        assert ours.penalties.as_dict() == theirs.penalties.as_dict()
        assert ours.counters.instructions == theirs.counters.instructions
        assert ours.counters.right_misses == theirs.counters.right_misses
        assert ours.total_ispi == theirs.total_ispi
        assert ours.ispi_breakdown() == theirs.ispi_breakdown()


@pytest.fixture(scope="session")
def serial_reference():
    """Fault-free serial sweep of ``JOBS`` (results + clean metrics)."""
    observer = Observer()
    runner = SimulationRunner(
        trace_length=TRACE, warmup=WARMUP, seed=SEED, observer=observer
    )
    results = [runner.run(name, config) for name, config in JOBS]
    return results, observer.registry


class ServerProcess:
    """One ``python -m repro.service`` subprocess and its address."""

    ANNOUNCE = "repro-service listening on "

    def __init__(self, data_dir: Path, *extra_args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", ""))
            if p
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--data-dir", str(data_dir),
                "--listen", "127.0.0.1:0",
                "--max-workers", "2",
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            # Its own process group: the server's spawn-pool workers and
            # resource tracker join it, so stop() can reap them all even
            # when the server itself died without tearing its pool down.
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.address = self._read_announce()

    def _read_announce(self) -> str:
        lines: list[str] = []
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            lines.append(line)
            if line.startswith(self.ANNOUNCE):
                return line[len(self.ANNOUNCE):].strip()
        raise AssertionError(
            "server never announced its address; output was:\n"
            + "".join(lines)
        )

    def wait(self, timeout: float = 30.0) -> int:
        return self.proc.wait(timeout=timeout)

    def stop(self) -> None:
        """Stop the server and every process of its group.

        SIGTERM first, so a live server shuts its pool down itself; then
        the whole group is SIGKILLed, which also reaps workers orphaned
        by a server that was killed or exited through an injected fault.
        """
        if self.proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                self.proc.send_signal(signal.SIGTERM)
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.proc.wait(timeout=STOP_GRACE_SECONDS)
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.pgid, signal.SIGKILL)
        with contextlib.suppress(Exception):
            self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


@pytest.fixture()
def start_server(tmp_path):
    """Factory launching servers; every one is torn down at test end."""
    servers: list[ServerProcess] = []

    def _start(data_dir: Path | None = None, *extra_args: str):
        server = ServerProcess(data_dir or tmp_path / "data", *extra_args)
        servers.append(server)
        return server

    yield _start
    for server in servers:
        server.stop()

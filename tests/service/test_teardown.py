"""The service harness leaves no process behind.

``ServerProcess`` runs each server in its own process group, and
``stop()`` must reap the whole group: the server, its spawn-pool
workers and the multiprocessing resource tracker.  That includes a
server that died from an injected ``exit`` fault and left its workers
orphaned.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.core.faults import EXIT_STATUS
from repro.errors import ServiceError
from repro.service import RemoteRunner, ServiceClient

from tests.service.conftest import JOBS, SEED, TRACE, WARMUP, ServerProcess

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(),
    reason="lists process groups through /proc",
)


def live_group_members(pgid: int) -> list[int]:
    """Pids of the non-zombie processes in process group *pgid*."""
    members = []
    for entry in sorted(Path("/proc").iterdir()):
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # "pid (comm) state ppid pgrp ...": comm may hold spaces.
        state, _ppid, pgrp = stat[stat.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


def wait_group_empty(pgid: int, timeout: float = 10.0) -> list[int]:
    """Poll until group *pgid* has no live member; returns the last
    survivors seen (empty on success)."""
    deadline = time.monotonic() + timeout
    while True:
        survivors = live_group_members(pgid)
        if not survivors or time.monotonic() > deadline:
            return survivors
        time.sleep(0.05)


def _sweep(address: str, retries: int = 5):
    return RemoteRunner(
        ServiceClient(address, retries=retries, backoff_base=0.0),
        trace_length=TRACE,
        warmup=WARMUP,
        seed=SEED,
        client_id="teardown",
    ).run_jobs(JOBS)


def test_stop_reaps_server_and_pool(tmp_path):
    server = ServerProcess(tmp_path / "data")
    try:
        _sweep(server.address)
        # The sweep started the pool: the group is more than the server.
        assert len(live_group_members(server.pgid)) > 1
    finally:
        server.stop()
    assert wait_group_empty(server.pgid) == []


def test_stop_reaps_workers_orphaned_by_an_exit_fault(tmp_path):
    server = ServerProcess(
        tmp_path / "data",
        "--inject-faults", "response:exit",
        "--fault-state", str(tmp_path / "faults"),
    )
    try:
        with pytest.raises(ServiceError, match="unreachable"):
            _sweep(server.address, retries=0)
        assert server.wait() == EXIT_STATUS
        # The server is gone, but not its group: the pool it never
        # shut down is still alive.
        assert live_group_members(server.pgid)
    finally:
        server.stop()
    assert wait_group_empty(server.pgid) == []

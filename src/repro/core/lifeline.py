"""Pool worker lifetimes: tie a worker to its parent, tear a pool down.

A fork-context pool worker inherits the write end of its own call
queue, so a parent that dies without shutting the pool down (SIGKILL,
OOM kill) leaves workers that never see EOF: they sit reparented to
PID 1 indefinitely.  The fork pool of
:meth:`~repro.core.runner.SimulationRunner.run_many` therefore calls
:func:`tie_to_parent` from its worker initializer.  The sweep service's
pool spawns its workers instead, so they inherit no call queue and need
no lifeline.

On Linux the kernel delivers ``SIGKILL`` to the worker the moment its
parent dies (``prctl(PR_SET_PDEATHSIG)``); elsewhere a daemon thread
polls ``os.getppid()`` and exits once the worker has been reparented.

:func:`terminate_pool` is the one hard teardown both pools use.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading
import time

#: ``prctl`` option number of ``PR_SET_PDEATHSIG`` (linux/prctl.h).
_PR_SET_PDEATHSIG = 1

#: Seconds between parent checks on platforms without ``prctl``.
POLL_SECONDS = 1.0


def tie_to_parent(parent_pid: int) -> None:
    """Pool worker initializer: die when process *parent_pid* dies."""
    if sys.platform.startswith("linux") and _set_parent_death_signal():
        # The parent may have died between fork and prctl; the signal
        # is only armed for a death that happens after the call.
        if os.getppid() != parent_pid:
            os._exit(1)
        return
    threading.Thread(
        target=_watch_parent, args=(parent_pid,), daemon=True,
        name="repro-parent-watch",
    ).start()


def terminate_pool(pool) -> None:
    """Shut a process pool down hard: cancel queued work, kill live
    workers, and reap them."""
    # Read the workers first: ``shutdown`` drops the pool's reference.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        with contextlib.suppress(Exception):
            proc.terminate()
    for proc in processes:
        with contextlib.suppress(Exception):
            proc.join(timeout=5)


def _set_parent_death_signal() -> bool:
    """Arm ``SIGKILL`` on parent death; False when ``prctl`` is unavailable."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _watch_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(POLL_SECONDS)
    os._exit(1)

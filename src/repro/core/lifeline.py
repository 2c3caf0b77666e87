"""Tie a pool worker's life to the process that forked it.

A fork-context pool worker inherits the write end of its own call
queue, so a parent that dies without shutting the pool down (SIGKILL,
OOM kill) leaves workers that never see EOF: they sit reparented to
PID 1 indefinitely.  Every process pool in the package therefore passes
:func:`tie_to_parent` as its worker initializer::

    ProcessPoolExecutor(
        max_workers=n, initializer=tie_to_parent, initargs=(os.getpid(),)
    )

On Linux the kernel delivers ``SIGKILL`` to the worker the moment its
parent dies (``prctl(PR_SET_PDEATHSIG)``); elsewhere a daemon thread
polls ``os.getppid()`` and exits once the worker has been reparented.
"""

from __future__ import annotations

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

"""A service pool worker never imports the service.

A spawned worker imports whatever it must unpickle.  The warm-up no-op
and the cell function both live under :mod:`repro.core`, so a booted
worker holds neither :mod:`repro.service` nor asyncio.  The probe is a
builtin (``eval``), so unpickling it imports nothing either.
"""

from __future__ import annotations

import asyncio

from repro.core.lifeline import terminate_pool
from repro.service.server import SweepService


def test_booted_worker_imports_no_service_module(tmp_path):
    service = SweepService(data_dir=tmp_path / "data", max_workers=1)
    pool = asyncio.run(service._pool_ready())
    try:
        modules = pool.submit(
            eval, "sorted(__import__('sys').modules)"
        ).result(timeout=60)
    finally:
        terminate_pool(pool)
    assert "repro.core.worker" in modules
    leaked = [
        name for name in modules
        if name == "asyncio" or name.startswith(("asyncio.", "repro.service"))
    ]
    assert leaked == []

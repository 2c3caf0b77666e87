"""Pooled chaos: a faulted service pool recovers *bit-identically*.

A runner under a fault plan runs in process, so the pool that takes
fault plans is the sweep service's.  A barrage of recoverable faults
across worker phases (a crash, a hard worker exit, a delay and a
corrupted artifact-cache entry) must leave results bit-identical to a
fault-free serial run, with the retries and the pool rebuild the
barrage forces.
"""

from __future__ import annotations

import asyncio

from repro.core.faults import FaultPlan, FaultSpec
from repro.service.protocol import SweepRequest
from repro.service.server import SweepService

from tests.service.conftest import JOBS, SEED, TRACE, WARMUP, assert_results_identical


def test_faulted_pool_matches_clean_serial(tmp_path, serial_reference):
    reference, _ = serial_reference
    plan = FaultPlan(
        faults=[
            FaultSpec(phase="simulate", kind="crash", benchmark="li"),
            FaultSpec(phase="build", kind="exit", benchmark="doduc"),
            FaultSpec(phase="generate", kind="delay", seconds=0.01),
            FaultSpec(phase="cache_load", kind="corrupt", benchmark="li"),
        ],
        state_dir=str(tmp_path / "faults"),
    )
    service = SweepService(
        data_dir=tmp_path / "data", max_workers=2, retries=3,
        backoff_base=0.0, fault_plan=plan,
    )
    request = SweepRequest(
        cells=tuple(JOBS), trace_length=TRACE, warmup=WARMUP, seed=SEED,
    )

    async def go():
        try:
            return await service.handle_sweep(request)
        finally:
            await service.close()

    response = asyncio.run(go())
    assert_results_identical(response.results, reference)
    assert plan.fired_total() >= 3  # the chaos actually happened
    assert service.registry.value("service.retries") >= 1
    assert service.registry.value("service.pool_rebuilds") >= 1

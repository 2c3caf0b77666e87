"""Adaptive-driver cells, pinned event for event.

Each cell runs a controller-driven schedule (tournament or oracle)
under an observer whose ring sink is large enough to drop nothing, and
is pinned by one SHA-256 digest over its
:class:`~repro.core.results.SimulationResult` (bar the config), its
published metrics and its full event sequence.  The digests were taken
from the driver that re-simulated the oracle's winning interval on the
committed engine whenever an observer was present.  The driver now
adopts the winning fork under every observer, replaying the events and
distribution samples the fork buffered, so these pins hold it to the
re-run's observation: same events, in the same order, with the same
stamps, and the same registry.

The pins cannot be regenerated from this code: a change that moves one
is a change of what an observed adaptive run reports.
``python tests/core/test_adaptive_event_pins.py`` prints the digests the
code computes, to diff against them.  The one deliberate move: every
cell was re-pinned when the ``engine.miss_service_slots`` and
``engine.redirect_penalty_slots`` histograms stopped counting the
warmup window's samples; results, events and every other metric were
checked unchanged against the earlier digests' inputs.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.config import SimConfig
from repro.core.engine import simulate
from repro.obs import Observer
from repro.obs.events import RingBufferSink, event_to_dict
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace
from tests.core.test_arch_pins import cell_sha256

TRACE_LENGTH = 20_000
WARMUP = 5_000
INTERVAL = 2_000
SEED = 3
#: Far above any cell's event count, so the ring drops nothing.
RING = 1 << 20

#: Machine variants of each adaptive cell, by pin name.
VARIANTS = {
    "paper": {},
    "prefetch": {"prefetch": True},
    "architectural": {"branch_schedule": "architectural"},
}

PINNED = {
    "gcc/oracle/paper": "8050b2545f361d5beabcdbc35fd3268868dbbc75da61589ca1b122fd96e6851d",
    "gcc/oracle/prefetch": "05f32e99931e2f4c769c14d2c7a6e6d11179dc35d2406fb74fed21503b565ec1",
    "gcc/oracle/architectural": "dbb0d58542112a76e5248ebfe5b568b283559438d97172a328d89e38b44afa5a",
    "gcc/tournament/paper": "a8db9131441d7a817dd23381554e5f65e577725ab8207611f2c77d2646cbaffd",
    "gcc/tournament/prefetch": "27d47fb623ada0ca8a90bd3e3725cfab3ebdeaee26df453162b7c24e519dab93",
    "gcc/tournament/architectural": "1bbee26d73af312e4506bdcffe4c8a7bbe19e107f61cf2f78c2502339e3dbffe",
    "doduc/oracle/paper": "8ecb23b0f287afd9eabe2f01a2c4b86c77f32f9eb90704b033a0fa0a40359ebd",
    "doduc/oracle/prefetch": "de96549749559acbabf978bb6a83405ac403b33ecdd02ea5ff8271f8afac7a2e",
    "doduc/oracle/architectural": "f73a785139b28f06100ea83b426a4cfe9aac3d7c0d9b6a20f07e72ebd1b32097",
    "doduc/tournament/paper": "a7c47dc3e8faa22beed6970a7b2c91ec514c91de85b1a36d3295e9fe3155d5e9",
    "doduc/tournament/prefetch": "721d8d89edd418ddcdf4d0732135b519473486f2fa2999e04f724207cb4bf9b9",
    "doduc/tournament/architectural": "4e4e542e9bef226d4193a71be7521bf5cdae537bde563fd7d9d60b44610c9a42",
}


@cache
def workload(name: str):
    program = build_workload(name, seed=SEED)
    return program, generate_trace(program, TRACE_LENGTH, seed=SEED)


def cases() -> dict[str, tuple[str, SimConfig]]:
    """Pin name -> ``(benchmark, config)``."""
    table = {}
    for name in ("gcc", "doduc"):
        for schedule in ("oracle", "tournament"):
            for variant, kwargs in VARIANTS.items():
                config = SimConfig(
                    policy_schedule=schedule,
                    adaptive_interval=INTERVAL,
                    **kwargs,
                )
                table[f"{name}/{schedule}/{variant}"] = (name, config)
    return table


def run_cell(name: str, config: SimConfig) -> str:
    """Simulate one cell under a lossless ring sink and digest it."""
    sink = RingBufferSink(capacity=RING)
    observer = Observer(sink=sink)
    program, trace = workload(name)
    result = simulate(program, trace, config, warmup=WARMUP, observer=observer)
    assert sink.dropped == 0
    return cell_sha256(
        result,
        {
            "events": [event_to_dict(event) for event in sink.events()],
            "metrics": observer.registry.as_dict(),
        },
    )


def test_every_cell_is_pinned():
    assert sorted(cases()) == sorted(PINNED)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_cell_matches_pin(case):
    assert run_cell(*cases()[case]) == PINNED[case]


if __name__ == "__main__":
    print("PINNED = {")
    for case, (name, config) in cases().items():
        print(f'    "{case}": "{run_cell(name, config)}",')
    print("}")

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
code computes, to diff against them.
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
    "gcc/oracle/paper": "90ec6f3bc501172f636e29ce68daba7ac4d595a8ad69c8df84b9f2a2a683c78e",
    "gcc/oracle/prefetch": "cbc0a5a9b1921f1d256a7d19ec17d1458bf5df27fef2b5291c6e12286f051d60",
    "gcc/oracle/architectural": "97ab7bd86644f33611372e2f983733959d6ac558c1048c1f891027ed93cf8fbf",
    "gcc/tournament/paper": "288a486e10b0bc2e333f04e21859a26c4642e6dea1db329974f453154f070431",
    "gcc/tournament/prefetch": "22253cfe01ada73c425b362636b081b43fb3f02b2385d6a28fdf39236d6e9afc",
    "gcc/tournament/architectural": "95d5461395ff6091eb8b8ab820caaa918ff8063c2defc9ac31769d3276d5bf69",
    "doduc/oracle/paper": "fb951f06e693b8f213bb89387e581aa0dae4a8336a252afb1aa91f8868490b76",
    "doduc/oracle/prefetch": "63e01315889adb007baacc844c18cc47999f06c678773569e9264b5654cf565a",
    "doduc/oracle/architectural": "b5a2bf809dc5de764b137fd8c5e01bd58b122f1756ab16a9cd6e35dbe46861e2",
    "doduc/tournament/paper": "bea8efd76d4c57d6e2a8c99bde1cc1f8cf5178b163d7f79cbff16160acbcd86b",
    "doduc/tournament/prefetch": "e0efe78ce52ac3bcf6c92288e94b294495c113a1a20bb88dd465972e7004794f",
    "doduc/tournament/architectural": "b2f19a4c2a51e3a3f8bbef5239a5e835fab3fa88428b29789cdfd21f20e1a592",
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

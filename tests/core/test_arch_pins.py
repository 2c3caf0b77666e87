"""Architectural-schedule cells, pinned result for result.

Every cell below is pinned by a SHA-256 digest over its
:class:`~repro.core.results.SimulationResult` (every field but the
config) and, for an observed cell, its published metrics.  The digests
were taken from the live engine that trained the predictor on its own
copy of the perfect-cache clock.  That copy is gone: a real-cache
architectural cell now always replays a recorded stream, and a
perfect-cache cell runs live on its fetch clock, which *is* that clock.
So the pins are the reference every replay path answers to:

* this module runs each cell through ``simulate()`` given no stream (a
  real-cache cell records its own stream and replays it);
* ``tests/core/test_stream_replay.py`` replays the same cells from one
  stream recorded under another policy and cache, directly and through
  the serial and parallel runners.

The cells are those ``test_stream_replay.py`` and the property suite
(``tests/properties/test_stream_replay_properties.py``) compared against
the live engine: gcc under every policy, cache variant and warmup;
the runner's and the parallel runner's policy sweeps; and a fixed
sample drawn from the property suite's cell space.  The three
per-interval policy schedules on li join them: an adaptive cell records
its stream in the same run set-up.

The pins cannot be regenerated from this code: a change that moves one
is a change of results.  ``python tests/core/test_arch_pins.py`` prints
the digests the code computes, to diff against them.  The one
deliberate move: the twenty observed cells with a warmup were re-pinned
when the ``engine.miss_service_slots`` and
``engine.redirect_penalty_slots`` histograms stopped counting
warmup-window samples; their results and every other metric were
checked unchanged against the earlier digests' inputs.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
from dataclasses import asdict
from functools import cache

import pytest

from repro.config import ALL_POLICIES, CacheConfig, FetchPolicy, SimConfig
from repro.core.engine import simulate
from repro.obs import Observer
from repro.program import BiasedBehaviour, LoopBehaviour
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace
from tests.conftest import make_diamond_program

#: The workload of ``test_stream_replay.py``: (benchmark, trace length).
SEED = 77
WORKLOADS = {"gcc": 10_000, "li": 6_000}

#: Cache and prefetch variants of one Resume cell, by pin name.
VARIANTS = {
    "cache-1k": {"cache": CacheConfig(size_bytes=1024)},
    "cache-64k": {"cache": CacheConfig(size_bytes=65536)},
    "assoc-2": {"cache": CacheConfig(assoc=2)},
    "assoc-4": {"cache": CacheConfig(assoc=4)},
    "prefetch": {"prefetch": True},
    "prefetch-always": {"prefetch": True, "prefetch_variant": "always"},
    "prefetch-target": {"prefetch": True, "target_prefetch": True},
    "classify": {"classify": True, "policy": FetchPolicy.OPTIMISTIC},
    "perfect": {"perfect_cache": True},
}

#: Per-interval policy schedules (tournament and oracle run under the
#: adaptive driver, a script inside the engine), by pin name.
SCHEDULES = {
    "oracle": {
        "policy_schedule": "oracle",
        "adaptive_policies": (FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
    },
    "tournament": {
        "policy_schedule": "tournament",
        "adaptive_policies": (FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
    },
    "script": {
        "policy_schedule": "script",
        "policy_script": (FetchPolicy.RESUME, FetchPolicy.OPTIMISTIC),
    },
}

#: Cells drawn from the property suite's cell space.
PROPERTY_CELLS = 16

PINNED = {
    "policy/oracle": "1cd41d581249ea90ab980e8678c3f79184b0070b639c07476ba8ce94e8a3c899",
    "policy/optimistic": "738e48f32849e918136e46a512819eac1facace31d581c728bdd9a3a4ed197fe",
    "policy/resume": "839180bab44d747a0616a4da9d08b56e582e6115c4915a1282362742aa9a7e55",
    "policy/pessimistic": "598a2848bbea7532678be8c67f8b44bddc381900da2e816ba7f60e754614e5d9",
    "policy/decode": "6eadc161577b6f73b3cbf6b24d7c66f8bcf5e7ca9da98a6b4411850e46a3db2b",
    "variant/cache-1k": "79364f286c2fc39520cc107fb75c9b31a893edb3210f4bb1238afb88cca3c192",
    "variant/cache-64k": "0699de08fa528ef92aecfa1ea8c15eabb15bceb2464dc7c4b8274a91fed9751c",
    "variant/assoc-2": "4d6eeed28f14261e5d8ed874047e6ccc449555e6c680fb50495660ba1a3990fa",
    "variant/assoc-4": "849e2d4d5ba05020fd0632f114d1af155a27734ea3f998a7d98e1cdcf7f26ddd",
    "variant/prefetch": "12dce27f0eed18720accdbd8d7404c23b9f8575c6794ad435532109c745dd8a8",
    "variant/prefetch-always": "7d924c0dd8a16f7f66a342ad5c812f3c86363c3adecc8f0b120ae14db6f77f85",
    "variant/prefetch-target": "b578012655b2933cd84eab8a5793e93cc70d1c0f37a7defffeedf5644112de83",
    "variant/classify": "bb6442fb50a8ed9928358faef56d6523766ff0f71f85d3f4a65b3d0ba850c33e",
    "variant/perfect": "b67cb0410def905466967d755018c308676ba223e4f6cad80835f9eb0ccf189a",
    "warmup/0": "598a2848bbea7532678be8c67f8b44bddc381900da2e816ba7f60e754614e5d9",
    "warmup/2500": "6e7a32a108eac8a6a5ab0704aae2ed423b6875f68163d32c22269f178268a32d",
    "runner/oracle": "722c614dafe5e5eab3dafc0954e57e0ddaa2a9cb36527380f76d7a4a0cf4b175",
    "parallel/oracle": "ca6415ebfaad72e0a0d6b3d5bf070f704e1849f54ceb715debbc186e096df937",
    "runner/optimistic": "4f3e292cfd4d47142f046f2b95885cc723507a728d31e76d3d7a57914c9ef352",
    "parallel/optimistic": "20c85eea8289c584d9a1966e59b1f066f88d24127cc834ddbf88165626b001f8",
    "runner/resume": "8e574f6b92384157da43e7fd648b02460dcfd473c96236d9d746e90fe0b03adc",
    "parallel/resume": "c850ccab46201dc9205679d502422f27a1583197e1df0ac4d1b69c6027968f3d",
    "runner/pessimistic": "789303f698da5da46f19085e27346a9ced2e4c18ca4c88a1fd85aa4aeaa9d167",
    "parallel/pessimistic": "c79f776e035a54de42388688c3659f72c34e292dd5e04e0bb4e23085c05042c8",
    "runner/decode": "bfe7c4fe3ea803af8d5d4d1801f36d21cd3d31bad19199d1fbed90a9f4e7a824",
    "parallel/decode": "ab0cbbfde6905ad2159d3641af59e5267c32c5bf1bf4b1bde1af033f413f4e36",
    "schedule/oracle": "c3f7b666959605e051f5f31271ed39e868bdd6f74042edb3477ba07bbfb6eb35",
    "schedule/tournament": "93fa2a04b14c2dff08fbfb7be926ccc689cced666d97a6fd80fd0620e7172e0b",
    "schedule/script": "85cfbb1bb1196852a4f9c0492978b021e83ba6ddf48eb68ae0f072117ae2a6c5",
    "property/0": "c8c7a1927231191d68ee69235bf4fd31254389ccb9f18159d2acac003275c80c",
    "property/1": "949137b4b8d50d8cc8fbab2701a8398eb7088ae9b1f3cd61e7c812c046571095",
    "property/2": "c23563d7fb4df811647e9ad6e8a241e474a813ecfd67efde7e6b781822e9575c",
    "property/3": "1b20ddc1ecea0d3ef1e2d2f5ee18684bd59166bc056228c31510b8c626a424b8",
    "property/4": "bd37c790fdce325fde9fc7d88df48bcdc1216de53c3ae22701f1a219f54c055a",
    "property/5": "fb0c431b6e0b276f57f2fc12cb9883ff520d337523cf1bbf3e4fead66728bd68",
    "property/6": "225a6f7d487ed33d5fc4d62efcb0bff3e742ce2d99064ab95725a023dccd8823",
    "property/7": "25146189290d39f176109c0c8b2c48d55b4b751c5acab3625c11f6e060db2ccd",
    "property/8": "b0a5d40e06446772395b9c7aea22d9d5b44a532e046b9aacefce5ddf56551a86",
    "property/9": "75f92ffcab4f198d92ee6b10eed2b8fe1b1cbc48d4d1eef5ea6c3f1fdf69ec52",
    "property/10": "aef451d94632a68c82a4e5bd631dd28161a2d75fe44014bb07f3aac0b226e054",
    "property/11": "cf25a94ea84d6fe0f4a2d0caf90a0e4f58e91df9eeaed2c68bf9e78d989568e2",
    "property/12": "162266f99a41eb5bec9fda04e84b53a345c9861c5a13b3a30e295cd8c041cc08",
    "property/13": "b4730b7dfd6433b5d9ea6a62a07056ff6bb680a7e7c210885a300fb6fcbf1533",
    "property/14": "99a7ffea4c8ff6f7dcede9e7aa1057306986606c9e4d0301019315837a7e0329",
    "property/15": "2c3c08b9c3122962bca2b96e7d70003680671dd0a5efaebd03cd47c830b877ef",
}


def arch(**kwargs) -> SimConfig:
    return SimConfig(branch_schedule="architectural", **kwargs)


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"cannot pin {type(value).__name__}")


def cell_sha256(result, metrics: dict | None = None) -> str:
    """One digest over *result* (bar its config) and *metrics*."""
    record = asdict(result)
    del record["config"]
    text = json.dumps([record, metrics], sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cell(program, trace, config, warmup=0, observed=True, stream=None) -> str:
    """Simulate one cell (under a fresh observer when *observed*) and
    digest it."""
    observer = Observer() if observed else None
    result = simulate(
        program, trace, config, warmup=warmup, observer=observer, stream=stream
    )
    return cell_sha256(
        result, observer.registry.as_dict() if observed else None
    )


@cache
def workload(name: str):
    """``(program, trace)`` of *name* as ``test_stream_replay.py`` and a
    runner with its seed build them."""
    program = build_workload(name, seed=SEED)
    return program, generate_trace(program, WORKLOADS[name], seed=SEED)


def _property_cells():
    """``(program, trace, config, warmup)`` cells of the property suite's
    space (random diamond programs, replay-eligible real-cache configs),
    drawn with a fixed seed."""
    rng = random.Random(1995)
    for _ in range(PROPERTY_CELLS):
        arms = []
        for _ in range(rng.randint(1, 3)):
            behaviour = (
                BiasedBehaviour(rng.random())
                if rng.random() < 0.5
                else LoopBehaviour(rng.randint(1, 10))
            )
            arms.append(
                (rng.randint(1, 10), behaviour, rng.randint(1, 8), rng.randint(1, 8))
            )
        program = make_diamond_program(rng.randint(1, 10), arms)
        n = rng.randint(200, 2_000)
        trace = generate_trace(program, n, seed=rng.randint(0, 2**16))
        config = arch(
            policy=rng.choice(ALL_POLICIES),
            cache=CacheConfig(assoc=rng.choice([1, 2, 4])),
            prefetch=rng.random() < 0.5,
        )
        yield program, trace, config, rng.randint(0, n // 2)


@cache
def cases() -> dict[str, tuple]:
    """Pin name -> ``(program, trace, config, warmup, observed)``."""
    gcc, li = workload("gcc"), workload("li")
    table = {}
    for policy in ALL_POLICIES:
        table[f"policy/{policy.value}"] = (*gcc, arch(policy=policy), 0, True)
    for name, kwargs in VARIANTS.items():
        config = arch(**{"policy": FetchPolicy.RESUME, **kwargs})
        table[f"variant/{name}"] = (*gcc, config, 0, True)
    for warmup in (0, 2_500):
        config = arch(policy=FetchPolicy.PESSIMISTIC)
        table[f"warmup/{warmup}"] = (*gcc, config, warmup, True)
    for policy in ALL_POLICIES:
        # The runner sweeps of test_stream_replay.py: results only.
        table[f"runner/{policy.value}"] = (*gcc, arch(policy=policy), 1_000, False)
        table[f"parallel/{policy.value}"] = (*li, arch(policy=policy), 500, False)
    for name, kwargs in SCHEDULES.items():
        config = arch(
            cache=CacheConfig(size_bytes=2048), adaptive_interval=1_000, **kwargs
        )
        table[f"schedule/{name}"] = (*li, config, 1_500, True)
    for i, (program, trace, config, warmup) in enumerate(_property_cells()):
        table[f"property/{i}"] = (program, trace, config, warmup, True)
    return table


def test_every_cell_is_pinned():
    assert sorted(cases()) == sorted(PINNED)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_cell_matches_pin(case):
    program, trace, config, warmup, observed = cases()[case]
    assert run_cell(program, trace, config, warmup, observed) == PINNED[case]


if __name__ == "__main__":
    print("PINNED = {")
    for case, (program, trace, config, warmup, observed) in cases().items():
        print(f'    "{case}": "{run_cell(program, trace, config, warmup, observed)}",')
    print("}")

"""Recorded prediction streams, pinned array for array.

``build_stream`` records a stream by running the event loop on the
perfect-cache clock behind a recording branch unit.  Every stream below
is pinned by a SHA-256 digest over the eleven arrays it saves (name,
dtype, length and bytes), taken from the earlier hand-written recorder,
which ran its own copy of that clock.  The streams cover four programs under
the default architecture, three speculation depths, a crippled
predictor, a return-address stack and a coupled BTB, plus the
redirect-dense stress program of ``tests/core/test_engine_backends.py``.

Regenerate (only after an intended change to the recording semantics,
which also needs a ``STREAM_FORMAT_VERSION`` bump)::

    PYTHONPATH=src python tests/core/test_stream_pins.py
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.branch.stream import (
    _FIELDS,
    STREAM_FORMAT_VERSION,
    PredictionStream,
    ReplayBranchUnit,
    build_stream,
)
from repro.config import BranchConfig, FetchPolicy, SimConfig
from repro.core.engine import simulate
from repro.core.runner import SimulationRunner
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace

TRACE_LENGTH = 4_000
SEED = 9
PROGRAMS = ("gcc", "li", "doduc", "cfront")
#: The stress suite's crippled predictor: constant redirects and walks.
CRIPPLED = BranchConfig(btb_entries=2, btb_assoc=1, pht_kind="bimodal", pht_entries=2)
BASE = SimConfig(branch_schedule="architectural")
VARIANTS = {
    "default": BASE,
    "depth1": replace(BASE, max_unresolved=1),
    "depth2": replace(BASE, max_unresolved=2),
    "depth2^20": replace(BASE, max_unresolved=1 << 20),
    "crippled": replace(BASE, branch=CRIPPLED),
    # Calls push the return-address stack between predict and the walk.
    "ras": replace(BASE, branch=BranchConfig(use_ras=True)),
    # Resolutions train BTB counters, located by pc.
    "coupled": replace(BASE, branch=BranchConfig(coupled=True)),
}

PINNED = {
    "gcc/default": "29321b77ddda24fc1f7d539da3992348ad9ae5420d2875040cd252c82b6e7390",
    "gcc/depth1": "c10bc432a38b2eeb9429a5dda173af49ea341b8363b21c21522ce827c99b1936",
    "gcc/depth2": "087d0757aed8617a45be19c81adfad4074ee189520f7a4b9041f8a4bc16f74dc",
    "gcc/depth2^20": "29321b77ddda24fc1f7d539da3992348ad9ae5420d2875040cd252c82b6e7390",
    "gcc/crippled": "5e3e7a414e46f017ca7827bd8ba24c594ca4afc531bd54ac98352f31fad1c83b",
    "gcc/ras": "de147dd1718ce45d5e142846b1a971f609fd25b39beef187f8fd84742b37ea1c",
    "gcc/coupled": "cf0314e7f4ddba10bd2780b9eceb02a287240c70b244815468f4588d78fa22dd",
    "li/default": "1bcc5ec800c193ed91fabd6f312db5d8e87daad128dac6f33a3460ece16ed5d2",
    "li/depth1": "63eb9fedeefdb6aa17647e721a5ab0c63bc6c1495842e962d80a3a5de131d339",
    "li/depth2": "890c5b3d55f4adfb9221452f47396a1383bf14a46e7966a888558a301a755ad8",
    "li/depth2^20": "1bcc5ec800c193ed91fabd6f312db5d8e87daad128dac6f33a3460ece16ed5d2",
    "li/crippled": "a72598ed3f40a4bf46c03bee12ace5cdb56436a9af4cb831ae3241ad0c7a5510",
    "li/ras": "d9e7137c02797f9c892493b9a1ed74e390a33feed26dee252ddc375d67c21006",
    "li/coupled": "b3d955b65a96b08d088d181e76024a5a168a7cde879e1aaaceba042cb07f3014",
    "doduc/default": "5d6306f4c4af1abfadbade2f84cc0ffb8c39ca7e79ce262c1b9231f1eaada8ac",
    "doduc/depth1": "e81952b293992e995d6b340e356f72338270fa355a9dc65e9d708b63379d43c3",
    "doduc/depth2": "cf6d3d97f699dd407a269ad7a450864d82f335466a3c31e595cca1a957820e41",
    "doduc/depth2^20": "5d6306f4c4af1abfadbade2f84cc0ffb8c39ca7e79ce262c1b9231f1eaada8ac",
    "doduc/crippled": "267dfc11e0f76146b8ba09c082e36b009ddfbb55de8eb0af9afdcb35e6bbdc4f",
    "doduc/ras": "f076ff70d4805bb295cb2d81143a984102fdd9be87a8797695e7ab6c5ba30c42",
    "doduc/coupled": "200255b9becebdee70b5eedbb9dea229f3d8612fdb4b469da4ecaa33d2855d91",
    "cfront/default": "f9551f028b98b6f1d42902314d34f276ae516248bcc3e0bd4e8db73d87f85e4c",
    "cfront/depth1": "7e982caa34e70080c6c6f61d4700887663a0fcd2fdf0affae5b11309e65807e8",
    "cfront/depth2": "3692867573b941c54bef103c89f7668e06a5ab003e34c381242b38836b5f618e",
    "cfront/depth2^20": "f9551f028b98b6f1d42902314d34f276ae516248bcc3e0bd4e8db73d87f85e4c",
    "cfront/crippled": "dbf0c4a45fc8726d447c2bd7a4b21d360c3537de0aa70227c55d201a293ef857",
    "cfront/ras": "4f5ca8f022dbb058f263508db7f6e71a73b2f7a02340c886ae03618723d19116",
    "cfront/coupled": "40cfd9b03e09121e8c77a6622171abf9b20489d1b11086b12bb2860b1ad89f6c",
    "li-unseeded/crippled/depth1": "82a11070bd2bdf21df3200194b73da787ecdbaffb1c3d81042ce053bb07c1ef8",
    "li-unseeded/crippled/depthNone": "82a11070bd2bdf21df3200194b73da787ecdbaffb1c3d81042ce053bb07c1ef8",
    "li-unseeded/crippled/depth1048576": "82a11070bd2bdf21df3200194b73da787ecdbaffb1c3d81042ce053bb07c1ef8",
}


def stream_sha256(stream) -> str:
    """One digest over every saved array of *stream*, in on-disk order."""
    digest = hashlib.sha256()
    arrays = stream.arrays()
    for name, _ in _FIELDS:
        array = arrays[name]
        digest.update(f"{name}:{array.dtype.str}:{len(array)};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _cases():
    """``(id, program, trace, config)`` for every pinned stream."""
    runner = SimulationRunner(trace_length=TRACE_LENGTH, seed=SEED, warmup=0)
    for name in PROGRAMS:
        prepared = runner.prepared(name)
        for variant, config in VARIANTS.items():
            yield f"{name}/{variant}", prepared.program, prepared.trace, config
    # test_engine_backends' redirect-dense li: an unseeded program.
    program = build_workload("li")
    trace = generate_trace(program, TRACE_LENGTH, seed=SEED)
    crippled = VARIANTS["crippled"]
    for depth in (1, None, 1 << 20):
        config = crippled if depth is None else replace(crippled, max_unresolved=depth)
        yield f"li-unseeded/crippled/depth{depth}", program, trace, config


@pytest.fixture(scope="module")
def recorded():
    """Case id -> ``(program, trace, config, stream)``."""
    return {
        case: (program, trace, config, build_stream(program, trace, config))
        for case, program, trace, config in _cases()
    }


@pytest.fixture(scope="module")
def digests(recorded):
    return {case: stream_sha256(entry[-1]) for case, entry in recorded.items()}


def test_every_stream_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_stream_matches_pin(digests, case):
    assert digests[case] == PINNED[case]


@pytest.mark.parametrize("case", sorted(PINNED))
def test_save_load_round_trip(recorded, case, tmp_path):
    # NumPy only at the disk boundary: what load converts back is the
    # recording, and saving it again writes the same bytes.
    stream = recorded[case][-1]
    stream.save(tmp_path / "stream")
    loaded = PredictionStream.load(tmp_path / "stream")
    assert loaded == stream
    saved, resaved = stream.arrays(), loaded.arrays()
    for name, dtype in _FIELDS:
        assert resaved[name].dtype == saved[name].dtype == dtype
        assert resaved[name].tobytes() == saved[name].tobytes(), name


@pytest.mark.parametrize(
    "case", sorted(case for case in PINNED if "crippled" in case)
)
def test_replay_hands_out_the_recorded_results(recorded, case, monkeypatch):
    """Replay returns the recorder's own result objects, in order: under
    a crippled predictor, constant redirects and walks."""
    program, trace, config, stream = recorded[case]
    handed = []
    replay = ReplayBranchUnit.predict_conditional

    def spy(unit, *args):
        handed.append(replay(unit, *args))
        return handed[-1]

    monkeypatch.setattr(ReplayBranchUnit, "predict_conditional", spy)
    for policy in (FetchPolicy.OPTIMISTIC, FetchPolicy.PESSIMISTIC):
        handed.clear()
        cell = replace(config, policy=policy, engine_backend="event")
        simulate(program, trace, cell, stream=stream)
        assert len(handed) == stream.n_records
        assert all(a is b for a, b in zip(handed, stream.results))


def test_format_version_unchanged():
    # Streams already in artifact caches stay valid: same arrays, same
    # layout.
    assert STREAM_FORMAT_VERSION == 1


if __name__ == "__main__":
    print("PINNED = {")
    for case, program, trace, config in _cases():
        print(f'    "{case}": "{stream_sha256(build_stream(program, trace, config))}",')
    print("}")

"""Golden-snapshot regression: metrics JSON per policy.

Each golden under tests/goldens/ is the ``MetricsRegistry.as_dict``
snapshot of one small fixed-seed, warmup-free run (spec lives in
tools/regen_metrics_goldens.py — benchmark, trace length, seed, config
are all defined there so the tool and this test can never drift apart).

On an intentional behaviour change, regenerate with::

    PYTHONPATH=src python tools/regen_metrics_goldens.py

and review the diff before committing.
"""

import importlib.util
import json
import os

import pytest

from repro.config import ALL_POLICIES
from repro.core.store import ENGINE_SEMANTICS

_TOOL_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "..", "tools", "regen_metrics_goldens.py",
)


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "regen_metrics_goldens", _TOOL_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return _load_tool()


@pytest.mark.slow
@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
def test_metrics_match_golden(tool, policy):
    path = tool.golden_path(policy)
    assert os.path.exists(path), (
        f"missing golden {path}; generate it with "
        "`PYTHONPATH=src python tools/regen_metrics_goldens.py`"
    )
    with open(path, encoding="utf-8") as handle:
        golden = json.load(handle)
    actual = tool.golden_metrics(policy)
    # JSON round-trip the fresh run so both sides have identical types
    # (tuples -> lists inside histogram payloads).
    actual = json.loads(json.dumps(actual))
    assert actual == golden, (
        f"metrics drifted from golden for {policy.name}; if the change is "
        "intentional, regenerate with "
        "`PYTHONPATH=src python tools/regen_metrics_goldens.py`"
    )


@pytest.mark.slow
def test_goldens_cover_every_policy(tool):
    for policy in ALL_POLICIES:
        assert os.path.exists(tool.golden_path(policy))


@pytest.mark.slow
def test_backend_parity_on_golden_spec(tool):
    # The regen tool refuses to write goldens unless the vector backend
    # hashes identically to the event loop on the replay-eligible
    # variant of the golden spec; run that same gate here so drift is
    # caught without regenerating.
    tool.verify_backend_parity()


def test_engine_semantics_tracks_the_goldens(tool):
    # Every cell digest folds in ENGINE_SEMANTICS, so a behaviour change
    # that regenerates the goldens must also change the constant, or
    # result stores would keep serving the old engine's numbers.
    assert tool.goldens_digest() == ENGINE_SEMANTICS, (
        "tests/goldens changed: set ENGINE_SEMANTICS in "
        "src/repro/core/store.py to the value "
        "`PYTHONPATH=src python tools/regen_metrics_goldens.py` prints"
    )

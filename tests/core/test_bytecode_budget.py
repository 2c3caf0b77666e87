"""A deterministic budget for the event loop's Python bytecodes.

``tools/count_bytecodes.py`` counts the bytecodes the gauge cells (gcc
and doduc, five policies, 20k instructions, 5k warmup) execute, with
the lowering memos warm.  The count does not depend on host load or
hash seed, only on the code and the CPython minor version, so this test
holds the hot loop to its recorded cost with about 3% headroom: a change
that makes every cell run more bytecodes per simulated instruction fails
here, however noisy timing is on the host.  After an intended change,
rerun the tool and re-record the budget, saying why in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

_TOOL_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "..", "tools", "count_bytecodes.py",
)

#: Recorded gauge totals by CPython (major, minor), before headroom.
RECORDED = {(3, 11): 15_848_996}
HEADROOM = 1.03


def _load_tool():
    spec = importlib.util.spec_from_file_location("count_bytecodes", _TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gauge_cells_stay_within_budget():
    version = sys.version_info[:2]
    if version not in RECORDED:
        pytest.skip(f"budget recorded for CPython {sorted(RECORDED)}, not {version}")
    if sys.gettrace() is not None:
        pytest.skip("another tracer (coverage, a debugger) is installed")
    total = _load_tool().gauge_total()
    budget = int(RECORDED[version] * HEADROOM)
    assert total <= budget, (
        f"gauge cells ran {total:,} bytecodes, budget {budget:,} "
        f"(recorded {RECORDED[version]:,}); see tools/count_bytecodes.py"
    )

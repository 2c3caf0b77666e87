"""A deterministic budget for the event loop's Python bytecodes.

``tools/count_bytecodes.py`` counts the bytecodes the gauge cells (gcc
and doduc, five policies, 20k instructions, 5k warmup) execute, with
the lowering memos warm.  The count does not depend on host load or
hash seed, only on the code and the CPython minor version, so this test
holds the hot loop to its recorded cost with about 3% headroom: a change
that makes every cell run more bytecodes per simulated instruction fails
here, however noisy timing is on the host.  After an intended change,
rerun the tool and re-record the budget, saying why in CHANGES.md.

The same count gauges what observation costs the adaptive driver: a
tournament or oracle cell run under a metrics observer may execute at
most 2% more bytecodes than the unobserved cell.  Forks copy the
machine, never the observer, so the observed run does the same work
plus its sample appends and the metric publication.
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


#: Observed / unobserved bytecodes allowed for one adaptive cell.
OBSERVED_ADAPTIVE_RATIO = 1.02


@pytest.mark.parametrize("schedule", ["tournament", "oracle"])
def test_observing_an_adaptive_cell_adds_little_work(schedule):
    if sys.gettrace() is not None:
        pytest.skip("another tracer (coverage, a debugger) is installed")
    from repro.config import SimConfig
    from repro.core.engine import simulate
    from repro.obs import Observer
    from repro.program.workloads import build_workload
    from repro.trace.generator import generate_trace

    count_total = _load_tool().count_total
    program = build_workload("gcc")
    trace = generate_trace(program, n_instructions=8_000, seed=1995)
    config = SimConfig(policy_schedule=schedule, adaptive_interval=1_000)
    simulate(program, trace, config, warmup=2_000)  # warm the memos
    plain = count_total(lambda: simulate(program, trace, config, warmup=2_000))
    observed = count_total(
        lambda: simulate(
            program, trace, config, warmup=2_000, observer=Observer()
        )
    )
    assert observed <= plain * OBSERVED_ADAPTIVE_RATIO, (
        f"{schedule}: observed run took {observed / plain:.3f}x the "
        f"unobserved run's {plain:,} bytecodes"
    )

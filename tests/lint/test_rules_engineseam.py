"""SIM011 (engine-seam): engines built only through build_engine."""

from __future__ import annotations

import pytest

from tests.lint.conftest import rule_ids, run_rules

pytestmark = pytest.mark.lint

POSITIVE = [
    pytest.param(
        "engine = FetchEngine(program, config)\n", id="module-level"
    ),
    pytest.param(
        "def run(program, config):\n"
        "    return FetchEngine(program, config)\n",
        id="inside-other-function",
    ),
    pytest.param(
        "from repro.core import engine as eng\n"
        "def run(program, config):\n"
        "    return eng.FetchEngine(program, config)\n",
        id="attribute-construction",
    ),
    pytest.param(
        "def run(inner):\n"
        "    return VectorEngine(inner)\n",
        id="vector-facade",
    ),
    pytest.param(
        "class Harness:\n"
        "    def setup(self):\n"
        "        self.engine = FetchEngine(self.program, self.config)\n",
        id="method",
    ),
    pytest.param(
        "def lower(trace, image, line_size):\n"
        "    return FlatProbes(fetch_program(trace, image, line_size))\n",
        id="flat-probes",
    ),
    pytest.param(
        "from repro.core import vector_kernels as vk\n"
        "def lower(trace):\n"
        "    return vk.TraceArrays(trace)\n",
        id="kernel-state-attribute",
    ),
    pytest.param(
        "def lower(stream, line_size):\n"
        "    return RecordedWalks(_lowered_lists(stream), line_size)\n",
        id="recorded-walks",
    ),
    pytest.param(
        "arrays = TraceArrays(trace)\n",
        id="kernel-state-module-level",
    ),
    pytest.param(
        "def plans(engine, trace):\n"
        "    return FetchProgram(trace, engine.program.image, 32).plans\n",
        id="fetch-program",
    ),
    pytest.param(
        "from repro.core import lowering\n"
        "def plans(trace, image):\n"
        "    return lowering.FetchProgram(trace, image, 32).plans\n",
        id="fetch-program-attribute",
    ),
]

NEGATIVE = [
    pytest.param(
        "def build_engine(program, config, observer=None, stream=None):\n"
        "    if stream is not None:\n"
        "        return VectorEngine(FetchEngine(program, config))\n"
        "    return FetchEngine(program, config)\n",
        id="the-seam-itself",
    ),
    pytest.param(
        "def run(program, config):\n"
        "    return build_engine(program, config)\n",
        id="calls-through-seam",
    ),
    pytest.param(
        "def build_engine(program, config):\n"
        "    def inner():\n"
        "        return FetchEngine(program, config)\n"
        "    return inner()\n",
        id="nested-inside-factory",
    ),
    pytest.param(
        "def flat_probes(trace, image, line_size):\n"
        "    return memo_get(_probe_memo, (trace, image),\n"
        "                    (id(trace), id(image), line_size), 'probe',\n"
        "                    lambda: FlatProbes(\n"
        "                        fetch_program(trace, image, line_size)))\n",
        id="lowering-factory-itself",
    ),
    pytest.param(
        "def run(trace, image):\n"
        "    return flat_probes(trace, image, 32).probes\n",
        id="calls-through-lowering-factory",
    ),
    pytest.param(
        "def recorded_walks(stream, line_size):\n"
        "    return memo_get(_walk_memo, (stream,), (id(stream), line_size),\n"
        "                    'walk', lambda: RecordedWalks(\n"
        "                        _lowered_lists(stream), line_size))\n",
        id="split-factory-itself",
    ),
    pytest.param(
        "def run(stream):\n"
        "    return recorded_walks(stream, 32).lines\n",
        id="calls-through-walk-factory",
    ),
    pytest.param(
        "def fetch_program(trace, image, line_size):\n"
        "    return memo_get(_fetch_memo, (trace, image),\n"
        "                    (id(trace), id(image), line_size), 'fetch',\n"
        "                    lambda: FetchProgram(trace, image, line_size))\n",
        id="fetch-program-factory-itself",
    ),
    pytest.param(
        "def plans(engine, trace):\n"
        "    return fetch_program(trace, engine.program.image, 32).plans\n",
        id="calls-through-fetch-program",
    ),
]


@pytest.mark.parametrize("source", POSITIVE)
def test_flags_direct_construction(source: str) -> None:
    findings = run_rules(source, module="repro.core.fixture", select="SIM011")
    assert rule_ids(findings) == ["SIM011"]


@pytest.mark.parametrize("source", NEGATIVE)
def test_allows_factory_construction(source: str) -> None:
    findings = run_rules(source, module="repro.core.fixture", select="SIM011")
    assert findings == []


def test_scoped_to_sim_modules() -> None:
    # Tooling/benchmark code may build engines directly (e.g. the speed
    # harness pins one backend on purpose).
    findings = run_rules(
        "engine = FetchEngine(p, c)\n",
        module="repro.report.tables",
        select="SIM011",
    )
    assert findings == []


def test_suppressible_inline() -> None:
    findings = run_rules(
        "engine = FetchEngine(p, c)  # simlint: disable=SIM011\n",
        module="repro.core.fixture",
        select="SIM011",
    )
    assert findings == []

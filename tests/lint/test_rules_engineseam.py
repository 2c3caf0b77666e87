"""SIM011 (engine-seam): engines built only through build_engine."""

from __future__ import annotations

import pytest

from tests.lint.conftest import rule_ids, run_rules

pytestmark = pytest.mark.lint

#: A determinism module; the rule checks every other module the same way.
CORE = "repro.core.fixture"

POSITIVE = [
    pytest.param(
        CORE, "engine = FetchEngine(program, config)\n", id="module-level"
    ),
    pytest.param(
        CORE,
        "def run(program, config):\n"
        "    return FetchEngine(program, config)\n",
        id="inside-other-function",
    ),
    pytest.param(
        CORE,
        "from repro.core import engine as eng\n"
        "def run(program, config):\n"
        "    return eng.FetchEngine(program, config)\n",
        id="attribute-construction",
    ),
    pytest.param(
        CORE,
        "def run(inner):\n"
        "    return VectorEngine(inner)\n",
        id="vector-facade",
    ),
    pytest.param(
        CORE,
        "class Harness:\n"
        "    def setup(self):\n"
        "        self.engine = FetchEngine(self.program, self.config)\n",
        id="method",
    ),
    pytest.param(
        CORE,
        "def lower(trace, image, line_size):\n"
        "    return FlatProbes(fetch_program(trace, image, line_size))\n",
        id="flat-probes",
    ),
    pytest.param(
        CORE,
        "from repro.core import vector_kernels as vk\n"
        "def lower(trace):\n"
        "    return vk.TraceArrays(trace)\n",
        id="kernel-state-attribute",
    ),
    pytest.param(
        CORE,
        "def lower(stream, line_size):\n"
        "    return RecordedWalks(_lowered_lists(stream), line_size)\n",
        id="recorded-walks",
    ),
    pytest.param(
        CORE, "arrays = TraceArrays(trace)\n", id="kernel-state-module-level",
    ),
    pytest.param(
        CORE,
        "def plans(engine, trace):\n"
        "    return FetchProgram(trace, engine.program.image, 32).plans\n",
        id="fetch-program",
    ),
    pytest.param(
        CORE,
        "from repro.core import lowering\n"
        "def plans(trace, image):\n"
        "    return lowering.FetchProgram(trace, image, 32).plans\n",
        id="fetch-program-attribute",
    ),
    pytest.param(
        "repro.util.mk",
        "from repro.core.engine import FetchEngine\n"
        "def make_raw(program):\n"
        "    return FetchEngine(program)\n",
        id="util-wrapper",
    ),
    pytest.param(
        "repro.util.helpers",
        "from repro.core.engine import FetchEngine\n"
        "def make(program):\n"
        "    return FetchEngine(program)\n"
        "def convenience(program):\n"
        "    return make(program)\n"
        "def run(program):\n"
        "    return convenience(program)\n",
        id="two-helper-chain",
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
    pytest.param(
        "from repro.core.engine import build_engine\n"
        "def drive(program):\n"
        "    return build_engine(program)\n",
        id="sanctioned-factory-caller",
    ),
]


@pytest.mark.parametrize(("module", "source"), POSITIVE)
def test_flags_direct_construction(module: str, source: str) -> None:
    findings = run_rules(source, module=module, select="SIM011")
    assert rule_ids(findings) == ["SIM011"]
    # Flagged where the construction stands, not where a caller is.
    (finding,) = findings
    cls = finding.message.split()[1].removesuffix("(...)")
    assert f"{cls}(" in source.splitlines()[finding.line - 1]


@pytest.mark.parametrize("source", NEGATIVE)
def test_allows_factory_construction(source: str) -> None:
    findings = run_rules(source, module="repro.core.fixture", select="SIM011")
    assert findings == []


@pytest.mark.parametrize(
    "module", ["repro.report.tables", "bench_engine_speed"]
)
def test_flags_outside_sim_modules(module: str) -> None:
    # A package module outside the determinism prefixes, and a script
    # outside the package (tools, benchmarks, examples), are checked too.
    findings = run_rules(
        "engine = FetchEngine(p, c)\n", module=module, select="SIM011"
    )
    assert rule_ids(findings) == ["SIM011"]


def test_suppressible_inline() -> None:
    findings = run_rules(
        "engine = FetchEngine(p, c)  # simlint: disable=SIM011\n",
        module="repro.core.fixture",
        select="SIM011",
    )
    assert findings == []

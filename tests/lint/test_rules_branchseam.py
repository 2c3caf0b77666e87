"""SIM010 (branch-seam): branch units built only through the factory seam."""

from __future__ import annotations

import pytest

from tests.lint.conftest import rule_ids, run_rules

pytestmark = pytest.mark.lint

#: A determinism module; the rule checks every other module the same way.
CORE = "repro.core.fixture"

POSITIVE = [
    pytest.param(
        CORE, "unit = BranchUnit(btb_sets=512)\n", id="module-level"
    ),
    pytest.param(
        CORE,
        "def run(config):\n"
        "    return BranchUnit(btb_sets=config.btb_sets)\n",
        id="inside-other-function",
    ),
    pytest.param(
        CORE,
        "from repro.branch import unit as bu\n"
        "def run():\n"
        "    return bu.BranchUnit()\n",
        id="attribute-construction",
    ),
    pytest.param(
        CORE,
        "def run(stream, config):\n"
        "    return ReplayBranchUnit(stream, config)\n",
        id="replay-facade",
    ),
    pytest.param(
        CORE,
        "class Harness:\n"
        "    def setup(self):\n"
        "        self.unit = BranchUnit()\n",
        id="method",
    ),
    pytest.param(
        "repro.util.mk",
        "from repro.branch.unit import BranchUnit\n"
        "def raw_unit(bits):\n"
        "    return BranchUnit(bits)\n",
        id="util-wrapper",
    ),
]

NEGATIVE = [
    pytest.param(
        "def build_branch_unit(config, stream=None):\n"
        "    if stream is not None:\n"
        "        return ReplayBranchUnit(stream, config)\n"
        "    return BranchUnit(btb_sets=config.btb_sets)\n",
        id="the-seam-itself",
    ),
    pytest.param(
        "def make_paper_branch_unit(pht_bits):\n"
        "    return BranchUnit(pht_bits=pht_bits)\n",
        id="paper-factory",
    ),
    pytest.param(
        "def run(config):\n"
        "    return build_branch_unit(config)\n",
        id="calls-through-seam",
    ),
    pytest.param(
        "def make_paper_branch_unit(pht_bits):\n"
        "    def inner():\n"
        "        return BranchUnit(pht_bits=pht_bits)\n"
        "    return inner()\n",
        id="nested-inside-factory",
    ),
]


@pytest.mark.parametrize(("module", "source"), POSITIVE)
def test_flags_direct_construction(module: str, source: str) -> None:
    findings = run_rules(source, module=module, select="SIM010")
    assert rule_ids(findings) == ["SIM010"]
    # Flagged where the construction stands, not where a caller is.
    (finding,) = findings
    cls = finding.message.split()[1].removesuffix("(...)")
    assert f"{cls}(" in source.splitlines()[finding.line - 1]


@pytest.mark.parametrize("source", NEGATIVE)
def test_allows_factory_construction(source: str) -> None:
    findings = run_rules(source, module="repro.core.fixture", select="SIM010")
    assert findings == []


@pytest.mark.parametrize(
    "module", ["repro.report.tables", "bench_engine_speed"]
)
def test_flags_outside_sim_modules(module: str) -> None:
    # A package module outside the determinism prefixes, and a script
    # outside the package (tools, benchmarks, examples), are checked too.
    findings = run_rules(
        "unit = BranchUnit()\n", module=module, select="SIM010"
    )
    assert rule_ids(findings) == ["SIM010"]


def test_suppressible_inline() -> None:
    findings = run_rules(
        "unit = BranchUnit()  # simlint: disable=SIM010\n",
        module="repro.core.fixture",
        select="SIM010",
    )
    assert findings == []

"""The self-hosting gate: simlint over this repository's own sources.

This is the CI plumbing for the lint pass — it runs inside tier-1
pytest, so no extra workflow step is needed.  If it fails, either a real
invariant violation was introduced (fix it) or a rule got stricter than
the code (fix the rule or add a reviewed ``# simlint: disable=`` with a
reason).  Weakening this test is equivalent to turning the linter off.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.report import render_text

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def _lint(*relpaths: str):
    return run_lint(
        [REPO_ROOT / rel for rel in relpaths], root=REPO_ROOT
    )


def test_src_is_lint_clean() -> None:
    result = _lint("src")
    assert result.files_checked > 90  # the whole package, not a subset
    assert result.parse_errors == []
    assert result.findings == [], "\n" + render_text(result)
    assert result.exit_code() == 0


def test_tools_and_benchmarks_are_lint_clean() -> None:
    # Out-of-package scripts: the module-scoped rules mostly stand down,
    # but the repo-wide ones (mutable defaults, picklability, metric
    # namespaces, float counters, the engine and branch-unit seams)
    # still apply.
    result = _lint("tools", "benchmarks", "examples")
    assert result.parse_errors == []
    assert result.findings == [], "\n" + render_text(result)


def test_reintroducing_the_reduce_regression_fails_the_gate(
    tmp_path: Path,
) -> None:
    # Acceptance criterion: deleting InjectedFault.__reduce__ (the PR 3
    # bug) must trip SIM003 on the real errors.py source.
    source = (REPO_ROOT / "src" / "repro" / "errors.py").read_text(
        encoding="utf-8"
    )
    head, _, _ = source.partition("    def __reduce__")
    broken = tmp_path / "src" / "repro"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text("")
    (broken / "errors.py").write_text(head, encoding="utf-8")
    result = run_lint([tmp_path / "src"], root=REPO_ROOT)
    assert "SIM003" in {finding.rule for finding in result.findings}
    assert result.exit_code() == 1


def test_reintroducing_unseeded_random_fails_the_gate(tmp_path: Path) -> None:
    # Acceptance criterion: an unseeded random.random() in repro.core
    # must trip SIM001.
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (core / "__init__.py").write_text("")
    (core / "jitter.py").write_text(
        "import random\n\n\ndef jitter():\n    return random.random()\n",
        encoding="utf-8",
    )
    result = run_lint([tmp_path / "src"], root=REPO_ROOT)
    assert {finding.rule for finding in result.findings} == {"SIM001"}
    assert result.exit_code() == 1


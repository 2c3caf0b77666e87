"""Harness for the simlint suite.

Rule tests lint *source strings* under a chosen module name instead of
real files: the scoped rules (determinism, taxonomy, ...) key off the
dotted module, so the same snippet can be asserted both inside and
outside a scope without touching the filesystem.  The repo root anchors
the real ``repro.errors`` / ``repro.obs.events`` registries, keeping the
fixtures honest against the live taxonomy.

CLI and end-to-end tests instead build a miniature repo under
``tmp_path`` (pyproject + ``src/repro/...`` packages, see
:func:`write_repo`) so path walking, config loading, and module-name
detection run for real.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint.config import LintConfig
from repro.lint.context import FileContext, RepoContext, parse_suppressions
from repro.lint.findings import Finding
from repro.lint.registry import all_rules
from repro.lint.runner import LintResult, lint_file, run_lint

#: The real repository root (two levels up from this file's directory).
REPO_ROOT = Path(__file__).resolve().parents[2]


def make_context(
    source: str,
    module: str = "repro.core.fixture",
    root: Path = REPO_ROOT,
    config: LintConfig | None = None,
) -> FileContext:
    """A FileContext for a dedented source string under *module*."""
    source = textwrap.dedent(source)
    lines = source.splitlines()
    return FileContext(
        path=root / "fixture.py",
        relpath="fixture.py",
        module=module,
        source=source,
        lines=lines,
        tree=ast.parse(source),
        suppressions=parse_suppressions(lines),
        repo=RepoContext(root=root, config=config or LintConfig()),
    )


def run_rules(
    source: str,
    module: str = "repro.core.fixture",
    root: Path = REPO_ROOT,
    config: LintConfig | None = None,
    select: str | None = None,
) -> list[Finding]:
    """Lint a source string and return its findings (optionally one rule)."""
    ctx = make_context(source, module=module, root=root, config=config)
    effective = config or LintConfig()
    rules = [
        (rule, effective.severity_for(rule.id, rule.default_severity))
        for rule in all_rules()
        if select is None or rule.id == select
    ]
    result = LintResult()
    lint_file(ctx, [(r, s) for r, s in rules if s != "off"], result)
    result.findings.sort(key=Finding.sort_key)
    return result.findings


def rule_ids(findings: list[Finding]) -> list[str]:
    return [finding.rule for finding in findings]


def write_repo(root: Path, modules: dict[str, str]) -> Path:
    """Materialise a mini repo: dotted module name -> dedented source."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "pyproject.toml").write_text("[tool.simlint]\n", encoding="utf-8")
    src = root / "src"
    src.mkdir(exist_ok=True)
    for dotted, source in modules.items():
        parts = dotted.split(".")
        directory = src
        for part in parts[:-1]:
            directory = directory / part
            directory.mkdir(exist_ok=True)
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
        (directory / f"{parts[-1]}.py").write_text(
            textwrap.dedent(source), encoding="utf-8"
        )
    return root


def lint_repo(root: Path, **kwargs) -> LintResult:
    """Lint the mini repo's ``src`` tree the way the CLI does."""
    return run_lint([root / "src"], root=root, **kwargs)


@pytest.fixture()
def mini_repo(tmp_path: Path) -> Path:
    """A miniature linted repo: pyproject + src/repro/core package."""
    (tmp_path / "pyproject.toml").write_text(
        "[tool.simlint]\n", encoding="utf-8"
    )
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (core / "__init__.py").write_text("")
    (tmp_path / "tests").mkdir()
    return tmp_path

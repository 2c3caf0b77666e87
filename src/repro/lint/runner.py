"""The lint driver: collect files, run rules, filter suppressions.

:func:`run_lint` is the single entry point shared by the CLI, the
``tools/check_lint.py`` gate, and the in-tree self-clean test, so all
three see byte-identical results.  Every rule sees one parsed file at
a time, so linting a subset of the tree (``--changed``) gives the same
findings for those files as a full run.

The outcome is a :class:`LintResult` holding the surviving findings
(sorted by location) plus the bookkeeping reporters need: files
checked, suppression count and parse errors (repo-relative, like
findings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.context import FileContext, RepoContext, collect_files
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Files that could not be parsed: (repo-relative path, message).
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def exit_code(self) -> int:
        """CLI convention: 0 clean, 1 gating findings (parse errors gate)."""
        return 1 if self.errors or self.parse_errors else 0


def _active_rules(
    config: LintConfig, select: tuple[str, ...] | None
) -> list[tuple[Rule, str]]:
    """(rule, effective severity) for every rule that should run."""
    active: list[tuple[Rule, str]] = []
    for rule in all_rules():
        if select is not None and rule.id not in select:
            continue
        severity = config.severity_for(rule.id, rule.default_severity)
        if severity == "off":
            continue
        active.append((rule, severity))
    return active


def _relative_to_root(path: Path, root: Path) -> str:
    """Repo-relative display path (same convention as FileContext)."""
    try:
        return str(path.resolve().relative_to(root))
    except ValueError:
        return str(path)


def lint_file(ctx: FileContext, rules: list[tuple[Rule, str]], result: LintResult) -> None:
    """Run every active per-file rule over one parsed file."""
    for rule, severity in rules:
        for line, col, message in rule.check(ctx):
            if ctx.suppressions.suppresses(rule.id, line):
                result.suppressed += 1
                continue
            result.findings.append(
                Finding(
                    rule=rule.id,
                    name=rule.name,
                    severity=severity,
                    path=ctx.relpath,
                    line=line,
                    col=col,
                    message=message,
                )
            )


def run_lint(
    paths: list[str | Path],
    config: LintConfig | None = None,
    root: str | Path | None = None,
    select: tuple[str, ...] | None = None,
) -> LintResult:
    """Lint *paths* (files or directories) and return the result.

    With no explicit *config*, the nearest ``pyproject.toml`` above the
    first path (or *root*) supplies ``[tool.simlint]``; *root* anchors
    repo-relative paths in findings and the registry/tests lookups.
    *select* restricts the run to the given rule ids (CLI ``--select``).
    """
    path_objs = [Path(p) for p in paths]
    if root is None:
        anchor = path_objs[0] if path_objs else Path.cwd()
        pyproject = find_pyproject(anchor)
        root_path = pyproject.parent if pyproject else Path.cwd()
    else:
        root_path = Path(root)
        pyproject = root_path / "pyproject.toml"
    if config is None:
        config = load_config(pyproject)
    repo = RepoContext(root=root_path.resolve(), config=config)
    rules = _active_rules(config, select)
    result = LintResult()
    for file_path in collect_files(path_objs):
        try:
            ctx = FileContext.load(file_path, repo)
        except (SyntaxError, ValueError) as exc:
            result.parse_errors.append(
                (_relative_to_root(file_path, repo.root), str(exc))
            )
            continue
        result.files_checked += 1
        lint_file(ctx, rules, result)
    result.findings.sort(key=Finding.sort_key)
    return result

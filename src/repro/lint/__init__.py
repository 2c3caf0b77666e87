"""simlint: repo-aware static analysis for the repro codebase.

Every result this reproduction publishes rests on invariants no unit
test can watch continuously: core simulation code must be bit-
deterministic, objects crossing a process-pool boundary
must survive pickling, raise sites must speak the ``repro.errors``
taxonomy that ``is_transient`` classifies, and metrics/events must land
in their registered namespaces.  This package machine-checks those
invariants over the AST on every commit, via ``python -m repro.lint``
(see :mod:`repro.lint.cli`), the ``tools/check_lint.py`` gate, and the
tier-1 self-clean test in ``tests/lint/test_self_clean.py``.

Public surface:

* :func:`repro.lint.runner.run_lint` — lint paths, get a
  :class:`~repro.lint.runner.LintResult`;
* :class:`repro.lint.findings.Finding` — one violation;
* :class:`repro.lint.registry.Rule` + :func:`repro.lint.registry.register`
  — how rules are added (see ``docs/static-analysis.md``);
* :mod:`repro.lint.report` — text/JSON rendering.

Inline suppressions use ``# simlint: disable=SIM00X`` (same line or a
comment line directly above) and ``# simlint: disable-file=SIM00X``.
Repo policy lives in ``[tool.simlint]`` in ``pyproject.toml``.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, known_rule_ids, register
from repro.lint.runner import LintResult, run_lint

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "all_rules",
    "known_rule_ids",
    "load_config",
    "register",
    "run_lint",
]

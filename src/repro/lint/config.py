"""Configuration for the simlint pass, sourced from ``[tool.simlint]``.

The linter must run identically from the CLI, from ``tools/check_lint.py``
and from the in-tree self-clean test, so all policy lives in one place:
the ``[tool.simlint]`` table of ``pyproject.toml``.  Everything has a
working default — an empty table (or a missing pyproject) yields the
configuration this repository is actually linted with.

Recognised keys::

    [tool.simlint]
    disable = ["SIM002"]              # rules to switch off entirely
    metric-namespaces = ["engine"]    # extends the default namespace set
    taxonomy-allowed = ["KeyError"]   # extra builtin raises tolerated
    determinism-modules = [...]       # module prefixes for SIM001/SIM002
    taxonomy-modules = [...]          # module prefixes for SIM004
    tests-path = "tests"              # corpus for SIM008 parity lookups
    flow = true                       # run whole-program rules (SIM014+)

    [tool.simlint.severity]
    SIM007 = "warning"                # per-rule severity override
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ExperimentError

from repro.lint.findings import SEVERITIES

#: Counter/histogram namespaces that may appear before the first dot of a
#: metric name literal (SIM005).
DEFAULT_METRIC_NAMESPACES = (
    "adaptive",
    "artifacts",
    "checkpoint",
    "classify",
    "engine",
    "faults",
    "l2",
    "prefetch",
    "service",
    "stream",
    "sweep",
)

#: Module prefixes whose code feeds simulator state and therefore must be
#: deterministic (SIM001 banned calls, SIM002 ordered iteration).
DEFAULT_DETERMINISM_MODULES = (
    "repro.core",
    "repro.cache",
    "repro.branch",
    "repro.memory",
    "repro.trace",
    "repro.program",
)

#: Module prefixes whose ``raise`` sites must use the repro.errors
#: taxonomy (SIM004).
DEFAULT_TAXONOMY_MODULES = (
    "repro.core",
    "repro.experiments",
    "repro.service",
)

#: Builtin exceptions tolerated by SIM004 even inside taxonomy modules:
#: protocol-mandated types a library cannot substitute (``__getattr__``
#: must raise AttributeError), the not-implemented convention, and
#: ConnectionError — a torn transport read *is* an OS-level connection
#: failure (``is_transient(OSError)`` is True), so raising it keeps the
#: client's retry classification honest.
DEFAULT_TAXONOMY_ALLOWED = (
    "AttributeError",
    "ConnectionError",
    "NotImplementedError",
)


class LintConfigError(ExperimentError):
    """The ``[tool.simlint]`` table is malformed."""


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Resolved linter configuration (defaults merged with pyproject)."""

    metric_namespaces: tuple[str, ...] = DEFAULT_METRIC_NAMESPACES
    determinism_modules: tuple[str, ...] = DEFAULT_DETERMINISM_MODULES
    taxonomy_modules: tuple[str, ...] = DEFAULT_TAXONOMY_MODULES
    taxonomy_allowed: tuple[str, ...] = DEFAULT_TAXONOMY_ALLOWED
    disabled_rules: tuple[str, ...] = ()
    severity_overrides: dict[str, str] = field(default_factory=dict)
    tests_path: str = "tests"
    #: Whether the whole-program flow phase runs at all.
    flow: bool = True

    def severity_for(self, rule_id: str, default: str) -> str:
        """Effective severity for one rule (``"off"`` if disabled)."""
        if rule_id in self.disabled_rules:
            return "off"
        return self.severity_overrides.get(rule_id, default)


def _string_tuple(table: dict, key: str) -> tuple[str, ...] | None:
    value = table.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise LintConfigError(
            f"[tool.simlint] {key} must be a list of strings, got {value!r}"
        )
    return tuple(value)


def config_from_table(table: dict) -> LintConfig:
    """Build a :class:`LintConfig` from a parsed ``[tool.simlint]`` table."""
    known = {
        "disable",
        "metric-namespaces",
        "taxonomy-allowed",
        "determinism-modules",
        "taxonomy-modules",
        "tests-path",
        "severity",
        "flow",
    }
    unknown = sorted(set(table) - known)
    if unknown:
        raise LintConfigError(
            f"unknown [tool.simlint] keys: {', '.join(unknown)}"
        )
    severity_table = table.get("severity", {})
    if not isinstance(severity_table, dict):
        raise LintConfigError(
            f"[tool.simlint.severity] must be a table, got {severity_table!r}"
        )
    for rule_id, severity in severity_table.items():
        if severity not in SEVERITIES:
            raise LintConfigError(
                f"[tool.simlint.severity] {rule_id} = {severity!r}; "
                f"expected one of {', '.join(SEVERITIES)}"
            )
    tests_path = table.get("tests-path", "tests")
    if not isinstance(tests_path, str):
        raise LintConfigError(
            f"[tool.simlint] tests-path must be a string, got {tests_path!r}"
        )
    flow = table.get("flow", True)
    if not isinstance(flow, bool):
        raise LintConfigError(
            f"[tool.simlint] flow must be a boolean, got {flow!r}"
        )
    extra_namespaces = _string_tuple(table, "metric-namespaces") or ()
    extra_allowed = _string_tuple(table, "taxonomy-allowed") or ()
    return LintConfig(
        metric_namespaces=tuple(
            sorted(set(DEFAULT_METRIC_NAMESPACES) | set(extra_namespaces))
        ),
        determinism_modules=_string_tuple(table, "determinism-modules")
        or DEFAULT_DETERMINISM_MODULES,
        taxonomy_modules=_string_tuple(table, "taxonomy-modules")
        or DEFAULT_TAXONOMY_MODULES,
        taxonomy_allowed=tuple(
            sorted(set(DEFAULT_TAXONOMY_ALLOWED) | set(extra_allowed))
        ),
        disabled_rules=_string_tuple(table, "disable") or (),
        severity_overrides=dict(severity_table),
        tests_path=tests_path,
        flow=flow,
    )


def load_config(pyproject: str | Path | None) -> LintConfig:
    """Load configuration from a ``pyproject.toml`` path (or defaults).

    A missing file or a pyproject without a ``[tool.simlint]`` table is
    not an error — the defaults are the policy.  A *malformed* table is
    an error: silently ignoring it would un-gate the build.
    """
    if pyproject is None:
        return LintConfig()
    path = Path(pyproject)
    if not path.is_file():
        return LintConfig()
    with open(path, "rb") as handle:
        try:
            data = tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise LintConfigError(f"cannot parse {path}: {exc}") from None
    table = data.get("tool", {}).get("simlint", {})
    if not isinstance(table, dict):
        raise LintConfigError(
            f"[tool.simlint] in {path} must be a table, got {table!r}"
        )
    return config_from_table(table)


def find_pyproject(start: str | Path) -> Path | None:
    """Walk up from *start* to the nearest ``pyproject.toml``."""
    current = Path(start).resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None

"""Text, JSON, and SARIF reporters for lint results.

The text form is for humans at a terminal (one ``path:line:col`` line
per finding, grouped naturally by the sort order, with a one-line
summary).  The JSON form is a stable machine schema consumed by the
gate tooling and asserted structurally in ``tests/lint``::

    {
      "version": 3,
      "files_checked": 87,
      "suppressed": 2,
      "findings": [
        {"rule": "SIM001", "name": "determinism", "severity": "error",
         "path": "src/repro/core/engine.py", "line": 12, "col": 8,
         "message": "..."},
        ...
      ],
      "parse_errors": [{"path": "...", "message": "..."}],
      "summary": {"errors": 1, "warnings": 0, "by_rule": {"SIM001": 1}}
    }

The SARIF form is the 2.1.0 subset GitHub code scanning and most SARIF
viewers consume: one run, one ``tool.driver`` listing the rules that
fired, one result per finding, and parse errors as tool-execution
notifications.
"""

from __future__ import annotations

import json

from repro.lint.registry import all_rules
from repro.lint.runner import LintResult

#: Schema version of the JSON report (bump on breaking changes).
#: 2: added the ``flow`` key; ``parse_errors`` paths are repo-relative.
#: 3: the ``flow`` key is gone (there is no whole-program phase).
JSON_REPORT_VERSION = 3

#: The SARIF spec version emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def render_text(result: LintResult) -> str:
    """Human-oriented report, one line per finding plus a summary."""
    lines = []
    for path, message in result.parse_errors:
        lines.append(f"{path}: parse error: {message}")
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.severity} {finding.rule} ({finding.name}): "
            f"{finding.message}"
        )
    errors, warnings = len(result.errors), len(result.warnings)
    summary = (
        f"{result.files_checked} file(s) checked: "
        f"{errors} error(s), {warnings} warning(s)"
    )
    if result.suppressed:
        summary += f", {result.suppressed} suppressed"
    if result.parse_errors:
        summary += f", {len(result.parse_errors)} unparseable"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-oriented report (schema above, stable key order)."""
    by_rule: dict[str, int] = {}
    for finding in result.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    payload = {
        "version": JSON_REPORT_VERSION,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [finding.as_dict() for finding in result.findings],
        "parse_errors": [
            {"path": path, "message": message}
            for path, message in result.parse_errors
        ],
        "summary": {
            "errors": len(result.errors),
            "warnings": len(result.warnings),
            "by_rule": {rule: by_rule[rule] for rule in sorted(by_rule)},
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def _sarif_uri(path: str) -> str:
    """Repo-relative forward-slash URI, per SARIF artifactLocation."""
    return path.replace("\\", "/")


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 report for CI code-scanning upload."""
    catalogue = {rule.id: rule for rule in all_rules()}
    fired = sorted({finding.rule for finding in result.findings})
    rules = []
    for rule_id in fired:
        rule = catalogue.get(rule_id)
        entry: dict[str, object] = {"id": rule_id}
        if rule is not None:
            entry["name"] = rule.name
            entry["shortDescription"] = {"text": rule.description}
        rules.append(entry)
    rule_index = {rule_id: pos for pos, rule_id in enumerate(fired)}
    results = []
    for finding in result.findings:
        results.append(
            {
                "ruleId": finding.rule,
                "ruleIndex": rule_index[finding.rule],
                "level": "error" if finding.severity == "error" else "warning",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": _sarif_uri(finding.path),
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    notifications = [
        {
            "level": "error",
            "message": {"text": f"parse error: {message}"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _sarif_uri(path),
                            "uriBaseId": "SRCROOT",
                        }
                    }
                }
            ],
        }
        for path, message in result.parse_errors
    ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": (
                            "docs/static-analysis.md"
                        ),
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": True,
                        "toolExecutionNotifications": notifications,
                    }
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)

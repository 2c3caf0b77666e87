"""SARIF 2.1.0 reporter: structure checks plus a checked-in golden file."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.report import render_sarif
from tests.lint.conftest import lint_repo, write_repo

pytestmark = pytest.mark.lint

GOLDEN = Path(__file__).parent / "sarif_golden.json"

#: The fixture behind the golden file: one finding (SIM001) in
#: ``repro.core.run`` (the helper module is outside the determinism scope,
#: so its clock read is not one) and one parse error.  Regenerate the
#: golden with ``python -m repro.lint <fixture> --format sarif`` after
#: intentional reporter changes.
MODULES = {
    "repro.util.helpers": """
        import time

        def now_stamp():
            return time.time()
    """,
    "repro.core.run": """
        import time
        from repro.util.helpers import now_stamp

        def step(state):
            state.append(time.time())
            return now_stamp()
    """,
}


def _golden_repo(tmp_path: Path) -> Path:
    root = write_repo(tmp_path, MODULES)
    (root / "src" / "repro" / "core" / "broken.py").write_text(
        "def oops(:\n", encoding="utf-8"
    )
    return root


def test_sarif_output_matches_the_golden_file(tmp_path: Path) -> None:
    result = lint_repo(_golden_repo(tmp_path))
    assert render_sarif(result) + "\n" == GOLDEN.read_text(encoding="utf-8")


def test_sarif_structure(tmp_path: Path) -> None:
    payload = json.loads(render_sarif(lint_repo(_golden_repo(tmp_path))))
    assert payload["version"] == "2.1.0"
    (run,) = payload["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "simlint"
    # Only rules that actually fired are listed, and ruleIndex points at
    # the right catalogue entry.
    fired = [rule["id"] for rule in driver["rules"]]
    assert fired == ["SIM001"]
    for sarif_result in run["results"]:
        index = sarif_result["ruleIndex"]
        assert driver["rules"][index]["id"] == sarif_result["ruleId"]
        location = sarif_result["locations"][0]["physicalLocation"]
        assert not Path(location["artifactLocation"]["uri"]).is_absolute()
        assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
        # SARIF columns are 1-based; internal columns are 0-based.
        assert location["region"]["startColumn"] >= 1
    notes = run["invocations"][0]["toolExecutionNotifications"]
    assert len(notes) == 1
    assert "parse error" in notes[0]["message"]["text"]
    uri = notes[0]["locations"][0]["physicalLocation"]["artifactLocation"]
    assert uri["uri"] == "src/repro/core/broken.py"


def test_sarif_on_a_clean_tree_has_no_results(tmp_path: Path) -> None:
    root = write_repo(
        tmp_path, {"repro.core.ok": "def fine():\n    return 1\n"}
    )
    payload = json.loads(render_sarif(lint_repo(root)))
    (run,) = payload["runs"]
    assert run["results"] == []
    assert run["tool"]["driver"]["rules"] == []
    assert run["invocations"][0]["executionSuccessful"] is True

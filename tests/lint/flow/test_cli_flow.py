"""CLI surface of the flow layer: --no-flow, --select, --changed."""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.lint.cli import main
from tests.lint.flow.conftest import write_repo

pytestmark = pytest.mark.lint

#: A repo whose only finding is cross-module (flow-only).
MODULES = {
    "repro.util.helpers": """
        import time

        def now_stamp():
            return time.time()
    """,
    "repro.core.run": """
        from repro.util.helpers import now_stamp

        def step(state):
            return now_stamp()
    """,
}


def _run_json(args: list[str], capsys) -> tuple[int, dict]:
    code = main([*args, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_no_flow_skips_the_whole_program_phase(tmp_path, capsys) -> None:
    root = write_repo(tmp_path, MODULES)
    base = [str(root / "src"), "--root", str(root)]
    code, payload = _run_json(base, capsys)
    assert code == 1
    assert [f["rule"] for f in payload["findings"]] == ["SIM014"]
    assert payload["flow"]["files_indexed"] == payload["files_checked"]
    code, payload = _run_json([*base, "--no-flow"], capsys)
    assert code == 0
    assert payload["findings"] == []
    assert payload["flow"] is None


def test_select_can_isolate_a_flow_rule(tmp_path, capsys) -> None:
    root = write_repo(tmp_path, MODULES)
    code, payload = _run_json(
        [str(root / "src"), "--root", str(root), "--select", "SIM014"], capsys
    )
    assert code == 1
    assert [f["rule"] for f in payload["findings"]] == ["SIM014"]


def test_select_without_flow_rules_skips_indexing(tmp_path, capsys) -> None:
    root = write_repo(tmp_path, MODULES)
    code, payload = _run_json(
        [str(root / "src"), "--root", str(root), "--select", "SIM001"], capsys
    )
    assert code == 0
    assert payload["flow"] is None


def test_list_rules_includes_flow_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM014", "SIM015", "SIM016"):
        assert rule_id in out


@pytest.mark.skipif(shutil.which("git") is None, reason="git unavailable")
def test_changed_lints_only_files_differing_from_head(tmp_path, capsys) -> None:
    root = write_repo(tmp_path, MODULES)
    git = ["git", "-C", str(root), "-c", "user.email=t@t", "-c", "user.name=t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-qm", "seed"], check=True)
    # Clean tree: nothing to lint.
    code, payload = _run_json(
        [str(root / "src"), "--root", str(root), "--changed"], capsys
    )
    assert code == 0
    assert payload["files_checked"] == 0
    # Edit one file with a repo-wide violation (mutable default).
    plain = root / "src" / "repro" / "util" / "extra.py"
    plain.write_text("def f(xs=[]):\n    return xs\n", encoding="utf-8")
    code, payload = _run_json(
        [str(root / "src"), "--root", str(root), "--changed"], capsys
    )
    assert code == 1
    assert payload["files_checked"] == 1  # only the edited file
    assert [f["rule"] for f in payload["findings"]] == ["SIM006"]


def test_changed_falls_back_outside_git(tmp_path, capsys) -> None:
    root = write_repo(tmp_path, MODULES)
    code = main(
        [str(root / "src"), "--root", str(root), "--changed", "--format", "json"]
    )
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert "linting all given paths" in captured.err
    assert code == 1
    assert payload["files_checked"] > 1  # the full tree ran

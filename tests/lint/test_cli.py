"""CLI behaviour: exit codes (0 clean / 1 findings / 2 internal error),
report formats, rule selection, the JSON schema, and ``--changed``."""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.registry import known_rule_ids
from repro.lint.report import JSON_REPORT_VERSION
from tests.lint.conftest import write_repo

pytestmark = pytest.mark.lint


CLEAN = "def f(x):\n    return x + 1\n"
DIRTY = (
    "import random\n"
    "def f(xs, acc=[]):\n"
    "    acc.append(random.random())\n"
    "    return acc\n"
)


def _write_module(repo: Path, name: str, source: str) -> Path:
    path = repo / "src" / "repro" / "core" / name
    path.write_text(source, encoding="utf-8")
    return path


def test_exit_zero_on_clean_tree(mini_repo: Path, capsys) -> None:
    _write_module(mini_repo, "clean.py", CLEAN)
    code = main([str(mini_repo / "src"), "--root", str(mini_repo)])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_exit_one_on_findings(mini_repo: Path, capsys) -> None:
    _write_module(mini_repo, "dirty.py", DIRTY)
    code = main([str(mini_repo / "src"), "--root", str(mini_repo)])
    assert code == 1
    out = capsys.readouterr().out
    assert "SIM001" in out and "SIM006" in out


def test_exit_one_on_unparseable_file(mini_repo: Path, capsys) -> None:
    _write_module(mini_repo, "broken.py", "def f(:\n")
    code = main([str(mini_repo / "src"), "--root", str(mini_repo)])
    assert code == 1
    assert "parse error" in capsys.readouterr().out


def test_exit_two_on_unknown_rule(mini_repo: Path, capsys) -> None:
    code = main([str(mini_repo / "src"), "--select", "SIM999"])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_exit_two_on_broken_config(mini_repo: Path, capsys) -> None:
    (mini_repo / "pyproject.toml").write_text(
        "[tool.simlint]\nseverity = 5\n", encoding="utf-8"
    )
    _write_module(mini_repo, "clean.py", CLEAN)
    code = main([str(mini_repo / "src"), "--root", str(mini_repo)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_exit_two_on_bad_flag(capsys) -> None:
    assert main(["--format", "yaml"]) == 2


def test_select_restricts_rules(mini_repo: Path, capsys) -> None:
    _write_module(mini_repo, "dirty.py", DIRTY)
    code = main(
        [str(mini_repo / "src"), "--root", str(mini_repo),
         "--select", "SIM006", "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["findings"]} == {"SIM006"}


def test_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in known_rule_ids():
        assert rule_id in out


def test_json_schema(mini_repo: Path, capsys) -> None:
    _write_module(mini_repo, "dirty.py", DIRTY)
    code = main(
        [str(mini_repo / "src"), "--root", str(mini_repo), "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_REPORT_VERSION
    assert set(payload) == {
        "version",
        "files_checked",
        "suppressed",
        "findings",
        "parse_errors",
        "summary",
    }
    assert payload["files_checked"] == 3  # two __init__.py + dirty.py
    for finding in payload["findings"]:
        assert set(finding) == {
            "rule", "name", "severity", "path", "line", "col", "message",
        }
        assert finding["severity"] in ("error", "warning")
        assert finding["line"] >= 1
    summary = payload["summary"]
    assert summary["errors"] == len(payload["findings"])
    assert summary["warnings"] == 0
    assert sum(summary["by_rule"].values()) == len(payload["findings"])
    # Findings are location-sorted for stable diffs.
    keys = [(f["path"], f["line"], f["col"]) for f in payload["findings"]]
    assert keys == sorted(keys)


def test_severity_override_demotes_to_warning(mini_repo: Path, capsys) -> None:
    (mini_repo / "pyproject.toml").write_text(
        "[tool.simlint.severity]\n"
        'SIM001 = "warning"\n'
        'SIM006 = "warning"\n',
        encoding="utf-8",
    )
    _write_module(mini_repo, "dirty.py", DIRTY)
    code = main(
        [str(mini_repo / "src"), "--root", str(mini_repo), "--format", "json"]
    )
    assert code == 0  # warnings do not gate
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 0
    assert payload["summary"]["warnings"] > 0


def test_disabled_rule_emits_nothing(mini_repo: Path, capsys) -> None:
    (mini_repo / "pyproject.toml").write_text(
        '[tool.simlint]\ndisable = ["SIM001", "SIM006"]\n', encoding="utf-8"
    )
    _write_module(mini_repo, "dirty.py", DIRTY)
    code = main([str(mini_repo / "src"), "--root", str(mini_repo)])
    assert code == 0


def test_single_file_path(mini_repo: Path, capsys) -> None:
    path = _write_module(mini_repo, "dirty.py", DIRTY)
    code = main([str(path), "--root", str(mini_repo)])
    assert code == 1


def test_suppressions_end_to_end(mini_repo: Path, capsys) -> None:
    _write_module(
        mini_repo,
        "suppressed.py",
        "import random\n"
        "x = random.random()  # simlint: disable=SIM001\n",
    )
    code = main([str(mini_repo / "src"), "--root", str(mini_repo)])
    assert code == 0
    assert "1 suppressed" in capsys.readouterr().out


#: A committed repo for the ``--changed`` tests, with one finding
#: (SIM001 in ``repro.core.run``) that a run of a clean diff must skip.
CHANGED_MODULES = {
    "repro.util.helpers": """
        def now_stamp(clock):
            return clock()
    """,
    "repro.core.run": """
        import time

        def step(state):
            return time.time()
    """,
}


def _run_json(args: list[str], capsys) -> tuple[int, dict]:
    code = main([*args, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.skipif(shutil.which("git") is None, reason="git unavailable")
def test_changed_lints_only_files_differing_from_head(tmp_path, capsys) -> None:
    root = write_repo(tmp_path, CHANGED_MODULES)
    git = ["git", "-C", str(root), "-c", "user.email=t@t", "-c", "user.name=t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-qm", "seed"], check=True)
    base = [str(root / "src"), "--root", str(root)]
    # Clean tree: nothing to lint.
    code, payload = _run_json([*base, "--changed"], capsys)
    assert code == 0
    assert payload["files_checked"] == 0
    # Edit one file with a repo-wide violation (mutable default).
    plain = root / "src" / "repro" / "util" / "extra.py"
    plain.write_text("def f(xs=[]):\n    return xs\n", encoding="utf-8")
    code, changed = _run_json([*base, "--changed"], capsys)
    assert code == 1
    assert changed["files_checked"] == 1  # only the edited file
    assert [f["rule"] for f in changed["findings"]] == ["SIM006"]
    # Every rule is per-file: the full run finds the same in that file.
    _, full = _run_json(base, capsys)
    edited = str(Path("src/repro/util/extra.py"))
    assert [f for f in full["findings"] if f["path"] == edited] == (
        changed["findings"]
    )


def test_changed_falls_back_outside_git(tmp_path, capsys) -> None:
    root = write_repo(tmp_path, CHANGED_MODULES)
    code = main(
        [str(root / "src"), "--root", str(root), "--changed", "--format", "json"]
    )
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert "linting all given paths" in captured.err
    assert code == 1
    assert payload["files_checked"] > 1  # the full tree ran

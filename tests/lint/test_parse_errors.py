"""Parse-error reporting: repo-relative paths everywhere findings have them."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.report import render_json, render_text
from tests.lint.conftest import lint_repo, write_repo

pytestmark = pytest.mark.lint


def _broken_repo(tmp_path: Path) -> Path:
    root = write_repo(
        tmp_path,
        {"repro.core.ok": "def fine():\n    return 1\n"},
    )
    (root / "src" / "repro" / "core" / "broken.py").write_text(
        "def oops(:\n", encoding="utf-8"
    )
    return root


def test_parse_error_paths_are_repo_relative(tmp_path: Path) -> None:
    root = _broken_repo(tmp_path)
    result = lint_repo(root)
    assert len(result.parse_errors) == 1
    path, message = result.parse_errors[0]
    # Same convention as findings: relative to the repo root, never the
    # machine-specific absolute path.
    assert path == str(Path("src/repro/core/broken.py"))
    assert not Path(path).is_absolute()
    assert "invalid syntax" in message or "Syntax" in message
    assert result.exit_code() == 1


def test_parse_errors_render_relative_in_both_reporters(tmp_path: Path) -> None:
    root = _broken_repo(tmp_path)
    result = lint_repo(root)
    rel = str(Path("src/repro/core/broken.py"))
    payload = json.loads(render_json(result))
    assert payload["parse_errors"] == [
        {"path": rel, "message": result.parse_errors[0][1]}
    ]
    assert f"{rel}: parse error:" in render_text(result)
    assert str(root) not in render_json(result)


def test_files_outside_the_root_keep_their_full_path(tmp_path: Path) -> None:
    # The relative_to fallback: linting a file that is not under the
    # configured root must not crash (and keeps an unambiguous path).
    outside = tmp_path / "elsewhere" / "bad.py"
    outside.parent.mkdir()
    outside.write_text("def oops(:\n", encoding="utf-8")
    root = write_repo(
        tmp_path / "repo", {"repro.core.ok": "def fine():\n    return 1\n"}
    )
    from repro.lint.runner import run_lint

    result = run_lint([root / "src", outside], root=root)
    assert len(result.parse_errors) == 1
    assert result.parse_errors[0][0] == str(outside.resolve())

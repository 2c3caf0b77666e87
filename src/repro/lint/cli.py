"""``python -m repro.lint`` — the simlint command-line interface.

Exit codes follow the experiments-CLI convention:

* ``0`` — no gating findings (warnings may still have been printed);
* ``1`` — at least one error-severity finding (or an unparseable file);
* ``2`` — the linter itself failed (bad flags, broken config, crash).

The fast pre-commit loop is ``python -m repro.lint --changed``: only
files differing from a git ref (default ``HEAD``, staged or unstaged,
plus untracked files) are linted.  Whole-program (flow) rules then see
only that subset of the call graph, so the full run stays authoritative
— ``--changed`` trades completeness for latency, on purpose.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.errors import ReproError
from repro.lint.config import find_pyproject
from repro.lint.context import collect_files
from repro.lint.registry import all_rules, known_rule_ids
from repro.lint.report import render_json, render_sarif, render_text
from repro.lint.runner import run_lint

_RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "simlint: repo-aware static analysis enforcing determinism, "
            "process-boundary, and taxonomy invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=tuple(_RENDERERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help=(
            "repo root anchoring [tool.simlint] config, the event/error "
            "registries, and relative paths (default: nearest pyproject)"
        ),
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help=(
            "lint only files differing from REF (default HEAD) plus "
            "untracked files; falls back to a full run outside git"
        ),
    )
    parser.add_argument(
        "--no-flow",
        action="store_true",
        help="skip the whole-program flow rules (SIM014-SIM016)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(
            f"{rule.id}  {rule.name:<18} [{rule.default_severity}]  "
            f"{rule.description}"
        )
    return "\n".join(lines)


def _lint_root(args: argparse.Namespace) -> Path:
    """The repo root the run will anchor to (mirrors run_lint)."""
    if args.root is not None:
        return Path(args.root)
    anchor = Path(args.paths[0]) if args.paths else Path.cwd()
    pyproject = find_pyproject(anchor)
    return pyproject.parent if pyproject else Path.cwd()


def _changed_files(root: Path, ref: str) -> set[Path] | None:
    """Resolved paths differing from *ref*, or ``None`` outside git.

    The union of ``git diff --name-only REF`` (staged and unstaged
    edits) and ``git ls-files --others --exclude-standard`` (untracked
    files) — exactly what a pre-commit check needs to look at.
    """
    commands = (
        ["git", "-C", str(root), "diff", "--name-only", "-z", ref, "--"],
        ["git", "-C", str(root), "ls-files", "--others",
         "--exclude-standard", "-z"],
    )
    changed: set[Path] = set()
    for command in commands:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, check=False
            )
        except OSError:
            return None
        if proc.returncode != 0:
            return None
        for name in proc.stdout.split("\0"):
            if name:
                changed.add((root / name).resolve())
    return changed


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help: keep its code but
        # normalise unexpected values to the internal-error convention.
        code = exc.code if isinstance(exc.code, int) else 2
        return code if code in (0, 2) else 2
    if args.list_rules:
        print(_list_rules())
        return 0
    select: tuple[str, ...] | None = None
    if args.select is not None:
        select = tuple(
            part.strip() for part in args.select.split(",") if part.strip()
        )
        unknown = sorted(set(select) - set(known_rule_ids()))
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(known_rule_ids())}",
                file=sys.stderr,
            )
            return 2
    paths: list[str | Path] = list(args.paths)
    root = args.root
    if args.changed is not None:
        lint_root = _lint_root(args)
        changed = _changed_files(lint_root, args.changed)
        if changed is None:
            print(
                "warning: --changed needs a git checkout and a valid ref; "
                "linting all given paths",
                file=sys.stderr,
            )
        else:
            candidates = collect_files([Path(p) for p in args.paths])
            paths = [p for p in candidates if p in changed]
            if root is None:
                root = str(lint_root)
    try:
        result = run_lint(
            paths,
            root=root,
            select=select,
            flow=not args.no_flow,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(_RENDERERS[args.format](result))
    return result.exit_code()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

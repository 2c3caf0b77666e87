"""Static-analysis gate: run simlint (per-file + flow) over the tree.

With arguments this stays a thin wrapper over ``python -m repro.lint``
(same flags, same exit codes).  With *no* arguments it runs the full
gate the way CI wants it:

* one lint run over the self-clean surface, which must report no
  gating findings;
* a **wall-clock budget** on that run (``SIMLINT_WARM_BUDGET`` seconds,
  default 20), so the whole-program phase stays cheap enough to run on
  every commit;
* one ``lint timing: Xs (N files)`` line that ``tools/check_all.py``
  surfaces even when the gate passes.

Exit codes follow the shared convention: 0 clean, 1 findings (or a
busted budget), 2 internal error.

Usage::

    PYTHONPATH=src python tools/check_lint.py
    PYTHONPATH=src python tools/check_lint.py --format json src tools
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.lint.cli import main as cli_main  # noqa: E402
from repro.lint.report import render_text  # noqa: E402
from repro.lint.runner import run_lint  # noqa: E402

#: Paths the gate lints (the self-clean surface).
GATE_PATHS = ("src", "tools", "benchmarks", "examples")

#: Wall-clock budget in seconds for the lint run (override for slow
#: machines).  The variable keeps its historical name.
WARM_BUDGET_SECONDS = float(os.environ.get("SIMLINT_WARM_BUDGET", "20"))


def run_gate() -> int:
    """One timed lint run over :data:`GATE_PATHS`."""
    started = time.perf_counter()
    result = run_lint(list(GATE_PATHS), root=".")
    elapsed = time.perf_counter() - started
    print(render_text(result))
    print(f"lint timing: {elapsed:.2f}s ({result.files_checked} files)")
    failed = result.exit_code()
    if elapsed > WARM_BUDGET_SECONDS:
        print(
            f"error: lint run took {elapsed:.2f}s, over the "
            f"{WARM_BUDGET_SECONDS:.0f}s budget (SIMLINT_WARM_BUDGET)",
            file=sys.stderr,
        )
        failed = 1
    return failed


if __name__ == "__main__":
    repo_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    os.chdir(repo_root)
    if sys.argv[1:]:
        sys.exit(cli_main(sys.argv[1:]))
    try:
        sys.exit(run_gate())
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)

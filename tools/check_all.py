"""Aggregate quality gate: run every repo check in one command.

Runs the tooling gates in sequence and reports a one-line verdict
per gate plus an overall summary:

* ``check_lint``         — simlint static analysis over ``src``, ``tools``,
  ``benchmarks`` and ``examples``, under its wall-clock budget;
* ``check_overhead``     — zero-overhead observability budget;
* ``check_engine_speed`` — hot-loop throughput + warm stream-replay
  sweep guard against ``BENCH_engine.json``, with the vector backend held to
  its perfect-cache (``--vector-floor``) and real-cache
  (``--real-floor 3.5``) speedup floors;
* ``check_robustness``   — fault-injected sweep recovery smoke test;
* ``check_service``      — job-server end-to-end: faulted sweep is
  bit-identical and the warm re-request is all store hits.

Exit codes follow the shared convention: 0 every gate passed, 1 at least
one gate failed, 2 a gate could not run at all (missing baseline,
internal error).  Failures never short-circuit — every gate runs so one
invocation reports the full picture.

Usage::

    PYTHONPATH=src python tools/check_all.py
    PYTHONPATH=src python tools/check_all.py --skip check_robustness
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The gates, in execution order (cheapest first), with the arguments
#: the aggregate gate pins (the per-tool defaults already match; pinning
#: them here makes the enforced floors visible in one place).
CHECK_ARGS = {
    "check_engine_speed": ("--real-floor", "3.5"),
}

CHECKS = (
    "check_lint",
    "check_overhead",
    "check_engine_speed",
    "check_robustness",
    "check_service",
)


def run_check(name: str) -> tuple[int, float, str]:
    """Run one gate as a subprocess; (exit code, seconds, combined output)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", f"{name}.py")]
        + list(CHECK_ARGS.get(name, ())),
        env=env,
        cwd=_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    elapsed = time.perf_counter() - started
    output = (proc.stdout or "") + (proc.stderr or "")
    return proc.returncode, elapsed, output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip",
        action="append",
        default=[],
        choices=CHECKS,
        metavar="CHECK",
        help="gate to skip (repeatable)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print each gate's full output, not just failures'",
    )
    args = parser.parse_args(argv)

    worst = 0
    lines = []
    for name in CHECKS:
        if name in args.skip:
            lines.append(f"{name:>20}: SKIPPED")
            continue
        code, elapsed, output = run_check(name)
        verdict = {0: "ok"}.get(code, "FAIL" if code == 1 else f"ERROR ({code})")
        lines.append(f"{name:>20}: {verdict} ({elapsed:.1f}s)")
        if code != 0 or args.verbose:
            indented = "\n".join(f"    {line}" for line in output.splitlines())
            lines.append(indented)
        elif name == "check_lint":
            # Surface the lint timing even when the gate is quiet, so a
            # rule that makes every commit's lint pass slower shows.
            for line in output.splitlines():
                if line.startswith("lint timing:"):
                    lines.append(f"    {line}")
        # An un-runnable gate (2) outranks a failing one (1).
        worst = max(worst, min(code, 2)) if code else worst
    print("\n".join(lines))
    print(f"overall: {'ok' if worst == 0 else 'FAIL' if worst == 1 else 'ERROR'}")
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""Compare benchmark runs of a base commit with runs of a change.

Collect the runs alternately, base first on even rounds and the change
first on odd ones, appending each to one file per side::

    python3 BASE/benchmarks/e2e/run.py --out base.json
    python3 CHANGE/benchmarks/e2e/run.py --out change.json
    ...   (at least 10 rounds)
    python3 benchmarks/e2e/compare.py base.json change.json

Run *i* of one file is paired with run *i* of the other.  Every
workload x end-to-end metric gets one row:

* improved   -- at least 10 pairs, the change wins 9 in 10 of them (ties
                count for neither) and the medians differ by more than
                the base runs' interquartile range;
* unresolved -- the base runs spread wider than the metric's bound and
                not every change run beats every base run;
* regressed  -- the change median is worse than the base median by more
                than the bound (``error_rate`` must stay 0);
* unchanged  -- otherwise.

Bounds and directions come from ``BENCHMARK.json``.  Exits 1 when any
row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Runs of one file, grouped by workload, in file order."""
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    grouped: dict[str, list[dict]] = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def verdict(base: list[float], change: list[float], bound: float, lower: bool) -> dict:
    """Classify one workload x metric from paired base/change values."""
    q1, base_median, q3 = quartiles(base)
    change_median = quartiles(change)[1]

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs)
    gap = change_median - base_median
    worse_by = (gap if lower else -gap) / base_median if base_median else 0.0
    spread = (q3 - q1) / base_median if base_median else 0.0
    all_better = all(better(c, b) for c in change for b in base)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(gap) > q3 - q1
        and better(change_median, base_median)
    ):
        status = "improved"
    elif spread > bound and not all_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    else:
        status = "unchanged"
    return {
        "status": status, "base": base_median, "change": change_median,
        "worse_by": worse_by, "spread": spread, "wins": wins, "pairs": len(pairs),
    }


def compare(base_runs: dict, change_runs: dict, specs: list[dict]) -> list[tuple]:
    rows = []
    for workload in sorted(set(base_runs) & set(change_runs)):
        base, change = base_runs[workload], change_runs[workload]
        for spec in specs:
            name = spec["name"]
            row = verdict(
                [run["metrics"][name][0] for run in base],
                [run["metrics"][name][0] for run in change],
                spec["bound"], spec["better"] == "lower",
            )
            rows.append((workload, name, row))
        failed = sum(run["failed"] for run in change)
        rows.append((workload, "error_rate", {
            "status": "regressed" if failed else "unchanged",
            "base": sum(run["failed"] for run in base),
            "change": failed, "worse_by": 0.0, "spread": 0.0,
            "wins": 0, "pairs": min(len(base), len(change)),
        }))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="runs of the base commit (run.py --out)")
    parser.add_argument("changes", type=Path, nargs="+", help="runs of each change")
    args = parser.parse_args(argv)
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    base_runs = load_runs(args.base)
    regressed = False
    for path in args.changes:
        print(f"== {path} vs {args.base}")
        print(f"{'workload':<14} {'metric':<12} {'base':>12} {'change':>12} "
              f"{'worse':>8} {'spread':>7} {'wins':>6}  verdict")
        for workload, name, row in compare(base_runs, load_runs(path), specs):
            print(f"{workload:<14} {name:<12} {row['base']:>12.6g} {row['change']:>12.6g} "
                  f"{100 * row['worse_by']:>7.2f}% {100 * row['spread']:>6.2f}% "
                  f"{row['wins']:>3}/{row['pairs']:<2}  {row['status']}")
            regressed |= row["status"] == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

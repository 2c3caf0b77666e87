"""End-to-end benchmark of the reproduction: paper tables, a design sweep
and the sweep service, each measured in fresh processes.

Run from the repository root::

    python3 benchmarks/e2e/run.py                        # all workloads, seed 1995
    python3 benchmarks/e2e/run.py --workload paper_repro --seed 7
    python3 benchmarks/e2e/run.py --trace                # per-layer run
    python3 benchmarks/e2e/run.py --repeat 5 --out base.json

Each metric prints as ``name value unit``; the last line is one JSON
object per workload (``correct``, ``attempted``, ``failed``,
``metrics``) holding the metrics ``BENCHMARK.json`` declares: the
end-to-end ones, or with ``--trace`` the per-layer ones.  Outputs are
checked against ``expected.json``; any mismatch exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench"
WORKLOADS = ("paper_repro", "design_sweep", "service_sweep")
TRACE_LENGTH = 200_000
#: Seeds whose digests expected.json records (1995 is the default, 7 held out).
RECORDED_SEEDS = (1995, 7)
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def declared_metrics() -> dict[str, list[dict]]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_child(args: list[str], trace_length: int) -> dict:
    """Run workloads.py in a fresh scratch directory; return its JSON."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=workdir)
    command = [sys.executable, str(HERE / "workloads.py"), *args,
               "--trace-length", str(trace_length)]
    # A session of its own, so a timeout takes the service and its
    # workers down with the child.
    proc = subprocess.Popen(
        command, cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args)} timed out") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def load_expected(path: Path, trace_length: int) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if data.get("trace_length") != trace_length:
        return {}
    return data.get("seeds", {})


def check_digests(passes: list[dict], expected: dict | None) -> tuple[str, int]:
    """(verdict, failed cells) for the passes' group digests."""
    if expected is None:
        return "unchecked", 0
    failed = 0
    for result in passes:
        groups = result["groups"]
        if set(groups) != set(expected):
            failed += max(result["attempted"], 1)
            continue
        for name, group in groups.items():
            if group["digest"] != expected[name]:
                failed += max(group["cells"], 1)
    return ("match" if failed == 0 else "MISMATCH"), failed


def measure(workload: str, seed: int, trace_length: int, traced: bool,
            expected: dict | None) -> dict:
    """One benchmark run of *workload*: every metric, plus correctness."""
    base = [workload, "--seed", str(seed)]
    if traced:
        untraced = run_child(["pass", *base], trace_length)
        spans = SCRATCH / f"spans_{workload}.json"
        result = run_child(["pass", *base, "--spans", str(spans)], trace_length)
        passes = [untraced, result]
        metrics = dict(result["layers"])
        metrics["obs.trace_overhead"] = [
            result["wall_s"] / untraced["wall_s"] - 1.0, "frac"
        ]
        print(f"[spans written to {spans}]")
    else:
        setups = [
            run_child(["setup", *base], trace_length)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        result = run_child(["pass", *base], trace_length)
        passes = [result]
        metrics = {
            "wall_s": [result["wall_s"], "s"],
            "setup_s": [statistics.median(setups), "s"],
            "peak_rss_mb": [result["peak_rss_mb"], "MB"],
            **result["requests"],
        }
    verdict, failed = check_digests(passes, expected)
    failed += sum(result["failed"] for result in passes)
    attempted = sum(result["attempted"] for result in passes)
    problems = [p for result in passes for p in result["problems"]]
    failed = min(max(failed, len(problems)), attempted)
    metrics["error_rate"] = [failed / attempted, "frac"]
    return {
        "workload": workload,
        "seed": seed,
        "digest": verdict,
        "problems": problems,
        "correct": failed == 0 and verdict != "MISMATCH",
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def result_line(run: dict, declared: list[dict]) -> dict:
    """The contract's JSON object: exactly the declared metrics."""
    metrics = {}
    for spec in declared:
        value = run["metrics"].get(spec["name"], [0, spec["unit"]])[0]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def print_run(run: dict) -> None:
    print(f"== {run['workload']} seed {run['seed']}")
    for name, (value, unit) in run["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(f"digest: {run['digest']}")
    for problem in run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles per metric over repeated runs of one workload."""
    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [run["metrics"][name][0] for run in runs]
        q1, q2, q3 = quartiles(values)
        summary[name] = {
            "median": q2, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / q2 if q2 else 0.0,
            "unit": runs[0]["metrics"][name][1],
        }
    return summary


def record_expected(path: Path, workloads, trace_length: int) -> None:
    """Re-run each workload at the recorded seeds and store its digests."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    if data.get("trace_length") != trace_length:
        data = {"trace_length": trace_length, "seeds": {}}
    for seed in RECORDED_SEEDS:
        for workload in workloads:
            result = run_child(["pass", workload, "--seed", str(seed)], trace_length)
            if result["problems"]:
                raise BenchError(f"{workload} seed {seed}: {result['problems']}")
            data["seeds"].setdefault(str(seed), {})[workload] = {
                name: group["digest"] for name, group in result["groups"].items()
            }
            print(f"recorded {workload} seed {seed}")
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted so a caller can pass BENCHMARK.json's "
                        "run_seconds; it changes nothing, because a run is "
                        "always one pass of fixed work")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="per-layer run: one untraced and one traced pass")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each workload N times; report median and IQR")
    parser.add_argument("--out", type=Path, default=None,
                        help="also append every run, as JSON, to this file")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    parser.add_argument("--record-expected", action="store_true",
                        help="regenerate the expected digests (benchmark changes only)")
    parser.add_argument("--trace-length", type=int, default=TRACE_LENGTH,
                        help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no simulator sources under {ROOT / 'src'}")
        if args.record_expected:
            record_expected(args.expected, workloads, args.trace_length)
            return 0
        declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
        expected = load_expected(args.expected, args.trace_length).get(str(args.seed), {})
        runs, lines = [], []
        for workload in workloads:
            repeats = [
                measure(workload, args.seed, args.trace_length, bool(args.trace),
                        expected.get(workload))
                for _ in range(args.repeat)
            ]
            for run in repeats:
                print_run(run)
            runs += repeats
            line = result_line(repeats[0], declared)
            if args.repeat > 1:
                summary = summarize(repeats)
                print(f"== {workload}: median [q1, q3] over {args.repeat} runs")
                for name, stat in summary.items():
                    print(f"{name} {stat['median']!r} [{stat['q1']!r}, {stat['q3']!r}] "
                          f"iqr {100 * stat['iqr_frac']:.2f}% {stat['unit']}")
                for spec in declared:
                    line["metrics"][spec["name"]]["value"] = summary.get(
                        spec["name"], {"median": 0}
                    )["median"]
                line["correct"] = all(run["correct"] for run in repeats)
                line["attempted"] = sum(run["attempted"] for run in repeats)
                line["failed"] = sum(run["failed"] for run in repeats)
            lines.append(line)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        # Append, so alternating base/change rounds accumulate (compare.py).
        try:
            runs = json.loads(args.out.read_text(encoding="utf-8"))["runs"] + runs
        except (OSError, ValueError, KeyError):
            pass
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())

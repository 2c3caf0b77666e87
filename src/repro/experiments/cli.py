"""Command-line entry point: regenerate paper tables/figures.

Usage (installed as ``repro-experiment``, or ``python -m repro``):

    repro-experiment table5
    repro-experiment figure1 figure3 --trace-length 400000
    repro-experiment all
    repro-experiment --list
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from repro.core.runner import DEFAULT_TRACE_LENGTH, SimulationRunner
from repro.errors import ExperimentError
from repro.experiments.registry import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Regenerate tables/figures from 'Instruction Cache Fetch "
            "Policies for Speculative Execution' (ISCA 1995)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (e.g. table5, figure1) or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list known experiment ids"
    )
    parser.add_argument(
        "--trace-length",
        type=int,
        default=DEFAULT_TRACE_LENGTH,
        help="dynamic instructions per benchmark (default %(default)s)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=None,
        help="unmeasured warmup instructions (default: trace length / 4, "
        "capped at 50k)",
    )
    parser.add_argument(
        "--seed", type=int, default=1995, help="trace seed (default 1995)"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent artifact cache: built programs and generated "
        "traces are stored under DIR keyed by (workload, trace length, "
        "seed, generator version) and reused by later runs (safe to share "
        "between concurrent processes)",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="ADDRESS",
        help="run sweep cells on a repro.service sweep server at ADDRESS "
        "(host:port or unix:path) instead of simulating locally: finished "
        "cells come from the server's content-addressed result store, "
        "concurrent identical requests are deduplicated, and transport "
        "failures retry automatically (start one with "
        "'python -m repro.service --data-dir DIR')",
    )
    parser.add_argument(
        "--client-id",
        default=None,
        metavar="NAME",
        help="client identity reported to --server for fair scheduling "
        "(default: user@host)",
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        metavar="N",
        help="scheduling priority hint for --server requests (higher runs "
        "first; default %(default)s)",
    )
    parser.add_argument(
        "--cache-prune",
        action="store_true",
        help="before running, delete artifact-cache entries no current "
        "reader can hit (old format/generator/stream versions); requires "
        "--cache-dir; with no experiments given, prune and exit",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        metavar="DIR",
        help="also write each experiment's artifacts (txt, csv, json, and "
        "svg for figures) into DIR",
    )
    parser.add_argument(
        "--trace-events",
        default=None,
        metavar="PATH",
        help="stream cycle-level simulation events to PATH as JSON lines "
        "(one typed event per line; slows simulation)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the aggregated metrics registry (plus per-phase "
        "profile) to PATH as JSON after all experiments finish",
    )
    fault = parser.add_argument_group("fault tolerance")
    fault.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="re-run a sweep cell up to N times after a transient failure "
        "(worker crash, timeout, corrupted cache entry) with bounded "
        "exponential backoff; deterministic failures never retry "
        "(default %(default)s)",
    )
    fault.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog deadline per sweep cell; a cell that exceeds it is "
        "killed and treated as a transient failure (default: no timeout)",
    )
    fault.add_argument(
        "--on-error",
        choices=("raise", "skip"),
        default="raise",
        help="after retries are exhausted: 'raise' aborts the experiment, "
        "'skip' records the failure, leaves the cell blank in tables/CSV/"
        "JSON, and keeps going (default %(default)s)",
    )
    fault.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="store each completed (benchmark, config) result under DIR; "
        "re-running with the same DIR resumes, loading finished cells "
        "from the store instead of simulating them again",
    )
    fault.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPECS",
        help="comma-separated fault specs 'phase:kind[:benchmark"
        "[:invocation[:seconds]]]' (phases: build, generate, cache_load, "
        "cache_store, simulate; kinds: crash, bug, exit, delay, corrupt) "
        "injected deterministically — for testing the fault-tolerance "
        "machinery itself",
    )
    fault.add_argument(
        "--fault-state",
        default=None,
        metavar="DIR",
        help="shared state directory for --inject-faults one-shot "
        "bookkeeping (default: a fresh temporary directory)",
    )
    return parser


def _save_artifacts(result, directory: str) -> None:
    import os

    from repro.errors import ExperimentError
    from repro.report import (
        save_breakdown_svg,
        save_experiment_csv,
        save_experiment_json,
    )

    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, result.experiment_id)
    with open(base + ".txt", "w", encoding="utf-8") as handle:
        handle.write(result.render() + "\n")
    save_experiment_csv(result, directory)
    save_experiment_json(result, base + ".json")
    if result.charts:
        try:
            save_breakdown_svg(result, base + ".svg")
        except (ExperimentError, OSError) as exc:
            print(
                f"warning: svg export failed for {result.experiment_id}: {exc}",
                file=sys.stderr,
            )


def _report_failures(runner, output_dir: str | None) -> None:
    """Print the structured failure report; also save it under *output_dir*."""
    if not runner.failures:
        return
    cells = sum(f.cells for f in runner.failures)
    print(
        f"warning: {cells} sweep cell(s) skipped after errors:",
        file=sys.stderr,
    )
    for failure in runner.failures:
        print(f"  - {failure.describe()}", file=sys.stderr)
    if output_dir:
        import json
        import os

        os.makedirs(output_dir, exist_ok=True)
        path = os.path.join(output_dir, "failures.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [failure.as_dict() for failure in runner.failures],
                handle,
                indent=2,
            )
            handle.write("\n")
        print(f"[failure report written to {path}]", file=sys.stderr)


def _build_remote_runner(args):
    """A RemoteRunner targeting ``--server`` (local knobs don't apply)."""
    import getpass
    import socket as socket_module

    from repro.service import RemoteRunner, ServiceClient

    for flag, value in (
        ("--cache-dir", args.cache_dir),
        ("--checkpoint", args.checkpoint),
        ("--inject-faults", args.inject_faults),
        ("--trace-events", args.trace_events),
    ):
        if value:
            print(
                f"warning: {flag} is server-side state and is ignored "
                "with --server",
                file=sys.stderr,
            )
    client_id = args.client_id
    if not client_id:
        client_id = (
            f"{getpass.getuser()}@{socket_module.gethostname()}"
        )
    return RemoteRunner(
        ServiceClient(args.server),
        trace_length=args.trace_length,
        seed=args.seed,
        warmup=args.warmup,
        on_error=args.on_error,
        priority=args.priority,
        client_id=client_id,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    prune_stats = None
    if args.cache_prune:
        if not args.cache_dir:
            print("--cache-prune requires --cache-dir", file=sys.stderr)
            return 2
        from repro.core.artifacts import ArtifactCache

        prune_stats = ArtifactCache(args.cache_dir).prune()
        print(
            f"[cache prune: removed {prune_stats.entries} stale entr"
            f"{'y' if prune_stats.entries == 1 else 'ies'}, freed "
            f"{prune_stats.bytes_freed} bytes]"
        )
        if not args.experiments:
            return 0
    if not args.experiments:
        print("no experiments given; try --list", file=sys.stderr)
        return 2
    ids = list(args.experiments)
    if ids == ["all"]:
        ids = list(EXPERIMENTS)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    observer = None
    if args.trace_events or args.metrics_out:
        from repro.obs import JsonlSink, Observer, PhaseProfiler

        sink = JsonlSink(args.trace_events) if args.trace_events else None
        observer = Observer(sink=sink, profiler=PhaseProfiler())
        if prune_stats is not None:
            observer.registry.inc("artifacts.pruned_entries", prune_stats.entries)
            observer.registry.inc("artifacts.pruned_bytes", prune_stats.bytes_freed)
    try:
        fault_plan = None
        if args.inject_faults:
            import tempfile

            from repro.core.faults import FaultPlan

            state_dir = args.fault_state or tempfile.mkdtemp(
                prefix="repro-faults-"
            )
            fault_plan = FaultPlan.parse(args.inject_faults, state_dir)
        if args.server:
            runner = _build_remote_runner(args)
        else:
            runner = SimulationRunner(
                trace_length=args.trace_length,
                seed=args.seed,
                warmup=args.warmup,
                observer=observer,
                cache_dir=args.cache_dir,
                retries=args.retries,
                job_timeout=args.job_timeout,
                on_error=args.on_error,
                checkpoint_dir=args.checkpoint,
                fault_plan=fault_plan,
            )
        try:
            for experiment_id in ids:
                started = time.perf_counter()
                result = run_experiment(experiment_id, runner)
                elapsed = time.perf_counter() - started
                print(result.render())
                print(f"[{experiment_id} regenerated in {elapsed:.1f}s]")
                print()
                if args.output_dir:
                    _save_artifacts(result, args.output_dir)
        finally:
            if observer is not None:
                observer.close()
        _report_failures(runner, args.output_dir)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    local = not args.server
    if observer is not None:
        if args.metrics_out:
            from repro.report import save_metrics_json

            if local and runner.cells_requested:
                # Present whenever cells were requested, even at zero.
                observer.registry.counter("sweep.result_hits")

            save_metrics_json(
                observer.registry, args.metrics_out, profile=observer.profiler
            )
            print(f"[metrics written to {args.metrics_out}]")
        if args.trace_events:
            print(
                f"[{observer.events_emitted} events written to "
                f"{args.trace_events}]"
            )
    if local:
        print(
            f"[cells: {runner.cells_requested} requested, "
            f"{runner.cells_simulated} simulated, {runner.memo_hits} from "
            f"memo, {runner.checkpoint.hits} from --checkpoint]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Engine hot-loop and stream-replay speed guard.

Re-measures serial engine throughput (same protocol as the trajectory
emitter in ``benchmarks/bench_engine_speed.py``: gcc, 200k instructions,
best-of-N) and fails if any measured configuration is more than
``--tolerance`` (default 10%) slower than the ``serial_ips`` numbers
recorded in ``BENCH_engine.json``.

When the trajectory records a ``stream_replay`` section, the replay
sweep is also re-measured: the warm replayed multi-policy sweep must
not be more than ``--replay-tolerance`` slower than the stored warm
timing.

When the trajectory records a ``vector_backend`` section, the
vector-vs-event sweep is also re-measured: the vectorized backend must
stay at least ``--vector-floor`` (default 5.0) times faster than the
event loop on perfect-cache cells and at least ``--real-floor``
(default 3.5) times faster on real-cache cells, where the exact scalar
mirrors over the lowered probe and walk streams carry that floor;
``auto`` routes eligible sweep cells through them.

When the trajectory records a ``static_schedule`` section, the
PolicySchedule seam's bookkeeping is also re-measured: running a static
configuration with interval accounting enabled must cost less than
``--schedule-tolerance`` (default 2%) over the plain static run.  That
cost is the median ratio of ``SCHEDULE_PAIRS`` interleaved
plain/interval pairs (as ``tools/check_overhead.py`` measures the null
sink), never a ratio of two separately taken best-of timings, so host
drift between the two measurements cancels.

Usage::

    PYTHONPATH=src python tools/check_engine_speed.py
    PYTHONPATH=src python tools/check_engine_speed.py --tolerance 0.2

Refresh the stored numbers by re-emitting the trajectory file::

    PYTHONPATH=src python benchmarks/bench_engine_speed.py

Wall-clock throughput is machine dependent: re-emit when moving to new
hardware rather than loosening the tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, _ROOT)

BASELINE_PATH = os.path.join(_ROOT, "BENCH_engine.json")

#: Interleaved plain/interval pairs behind the static-schedule ratio.
SCHEDULE_PAIRS = 9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional slowdown vs BENCH_engine.json "
        "(default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=7,
        help="serial measurement repeats, best-of (default 7)",
    )
    parser.add_argument(
        "--baseline",
        default=BASELINE_PATH,
        metavar="PATH",
        help="trajectory file to guard against (default %(default)s)",
    )
    parser.add_argument(
        "--vector-floor",
        type=float,
        default=5.0,
        help="minimum vector-backend speedup over the event loop on "
        "fully-vectorizable (perfect-cache) replay-eligible cells "
        "(default 5.0)",
    )
    parser.add_argument(
        "--real-floor",
        type=float,
        default=3.5,
        help="minimum vector-backend speedup over the event loop on "
        "real-cache replay-eligible cells (default 3.5; carried by the "
        "scalar mirrors over the lowered probe and walk streams)",
    )
    parser.add_argument(
        "--replay-tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown of the warm replay sweep vs "
        "BENCH_engine.json (default 0.25; looser than --tolerance because "
        "the sweep is sub-second and noisier)",
    )
    parser.add_argument(
        "--schedule-tolerance",
        type=float,
        default=0.02,
        help="allowed fractional overhead of interval bookkeeping on a "
        "static run (default 0.02 = 2%%; the PolicySchedule seam must be "
        "invisible when nothing switches)",
    )
    args = parser.parse_args(argv)

    if not os.path.exists(args.baseline):
        print(
            f"no baseline at {args.baseline}; emit it first:\n"
            "    PYTHONPATH=src python benchmarks/bench_engine_speed.py",
            file=sys.stderr,
        )
        return 2
    with open(args.baseline, encoding="utf-8") as handle:
        trajectory = json.load(handle)
    baseline = trajectory["serial_ips"]

    from benchmarks.bench_engine_speed import (
        _replay_sweep,
        _serial_rates,
        _vector_sweep,
    )

    rates = _serial_rates(repeats=args.repeats)
    failures = []
    for name, reference in sorted(baseline.items()):
        measured = rates.get(name)
        if measured is None:
            continue
        ratio = measured / reference
        print(
            f"{name:>16}: {measured:>10,} i/s vs stored {reference:>10,} i/s "
            f"({ratio:.3f}x)"
        )
        if ratio < 1.0 - args.tolerance:
            failures.append(
                f"{name}: engine is {(1.0 - ratio) * 100:.1f}% slower than "
                f"BENCH_engine.json ({reference:,} i/s); if this slowdown is "
                "intended (or the machine changed), re-emit the trajectory "
                "with: PYTHONPATH=src python benchmarks/bench_engine_speed.py"
            )

    stored_replay = trajectory.get("stream_replay")
    if stored_replay is not None:
        replay = _replay_sweep(repeats=3)
        print(
            f"{'replay_sweep':>16}: warm {replay['warm_s']:.3f}s (stored "
            f"{stored_replay['warm_s']:.3f}s)"
        )
        warm_ratio = replay["warm_s"] / stored_replay["warm_s"]
        if warm_ratio > 1.0 + args.replay_tolerance:
            failures.append(
                f"warm replay sweep is {(warm_ratio - 1.0) * 100:.1f}% slower "
                f"than BENCH_engine.json ({stored_replay['warm_s']}s); "
                "re-emit the trajectory if this is intended"
            )

    stored_vector = trajectory.get("vector_backend")
    if stored_vector is not None:
        vector = _vector_sweep(repeats=3)
        for group in ("perfect_cache", "real_cache"):
            measured = vector[group]
            stored = stored_vector[group]
            print(
                f"{'vector_' + group:>16}: event {measured['event_s']:.3f}s, "
                f"vector {measured['vector_s']:.3f}s "
                f"({measured['speedup']:.2f}x; stored {stored['speedup']:.2f}x)"
            )
        if vector["perfect_cache"]["speedup"] < args.vector_floor:
            failures.append(
                f"vector backend speedup "
                f"{vector['perfect_cache']['speedup']:.2f}x on perfect-cache "
                f"cells is below the {args.vector_floor:.2f}x floor; the "
                "vectorized backend has lost its reason to exist — profile "
                "VectorEngine._run_perfect"
            )
        if vector["real_cache"]["speedup"] < args.real_floor:
            failures.append(
                f"vector backend speedup "
                f"{vector['real_cache']['speedup']:.2f}x on real-cache cells "
                f"is below the {args.real_floor:.2f}x floor; the scalar "
                "mirrors have regressed — profile VectorEngine._scalar_span "
                "and VectorEngine._walk"
            )

    stored_schedule = trajectory.get("static_schedule")
    if stored_schedule is not None:
        from benchmarks.bench_engine_speed import _schedule_overhead

        schedule = _schedule_overhead(repeats=SCHEDULE_PAIRS)
        print(
            f"{'static_schedule':>16}: plain {schedule['plain_s']:.3f}s, "
            f"intervalled {schedule['interval_s']:.3f}s "
            f"(median of {schedule['pairs']} pairs "
            f"{schedule['overhead'] * 100:+.2f}%; stored "
            f"{stored_schedule['overhead'] * 100:+.2f}%)"
        )
        if schedule["overhead"] > args.schedule_tolerance:
            failures.append(
                f"static-schedule interval bookkeeping costs "
                f"{schedule['overhead'] * 100:.2f}% on a static run, above "
                f"the {args.schedule_tolerance * 100:.0f}% budget; the "
                "PolicySchedule seam must stay invisible when nothing "
                "switches — profile FetchEngine._run_intervals"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("engine speed check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

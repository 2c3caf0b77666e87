"""Bench: raw simulator throughput (regression guard, not a paper artifact).

Measures the engine in instructions per second on the gcc workload under
the cheapest (Oracle) and most work-per-miss (Resume + prefetch) policies,
plus workload construction and trace generation.  Useful for catching
performance regressions in the hot loops.

Run directly to record the benchmark trajectory file::

    PYTHONPATH=src python benchmarks/bench_engine_speed.py --emit BENCH_engine.json

which measures serial and parallel engine throughput plus the artifact
cache's cold-vs-warm sweep speedup (see ``repro.core.artifacts``).
``tools/check_engine_speed.py`` guards future changes against the serial
numbers stored there.
"""

from dataclasses import replace

import pytest

from repro.config import ALL_POLICIES, CacheConfig, FetchPolicy, SimConfig
from repro.core.engine import build_engine, simulate
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace


@pytest.fixture(scope="module")
def gcc_program():
    return build_workload("gcc")


@pytest.fixture(scope="module")
def gcc_trace(gcc_program):
    return generate_trace(gcc_program, 100_000, seed=3)


def test_speed_trace_generation(benchmark, gcc_program):
    """Trace-generation throughput (100k instructions)."""
    trace = benchmark(generate_trace, gcc_program, 100_000, 3)
    assert trace.n_instructions >= 100_000


def test_speed_engine_oracle(benchmark, gcc_program, gcc_trace):
    """Engine throughput, Oracle policy (no wrong-path work)."""
    result = benchmark(
        simulate, gcc_program, gcc_trace, SimConfig(policy=FetchPolicy.ORACLE)
    )
    assert result.counters.instructions == gcc_trace.n_instructions


def test_speed_engine_resume_prefetch(benchmark, gcc_program, gcc_trace):
    """Engine throughput, Resume + prefetch (heaviest configuration)."""
    config = replace(SimConfig(policy=FetchPolicy.RESUME), prefetch=True)
    result = benchmark(simulate, gcc_program, gcc_trace, config)
    assert result.counters.instructions == gcc_trace.n_instructions


def test_speed_workload_build(benchmark):
    """Synthetic-workload construction cost."""
    program = benchmark(build_workload, "li")
    assert program.image.n_instructions > 0


def test_null_sink_overhead_budget():
    """The observability layer must be free when disabled.

    Delegates to tools/check_overhead.py: interleaved bare/null-sink
    pairs, median pair ratio within 3%, plus a gross-regression guard
    against the stored absolute baseline.
    """
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "check_overhead.py")],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, (
        f"overhead check failed:\n{proc.stdout}\n{proc.stderr}"
    )


def test_engine_speed_budget():
    """The engine hot loop must not regress against BENCH_engine.json.

    Delegates to tools/check_engine_speed.py (skips cleanly when the
    trajectory file has not been emitted on this machine yet).
    """
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "BENCH_engine.json")):
        pytest.skip("no BENCH_engine.json; emit it first (see module docstring)")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "check_engine_speed.py")],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, (
        f"engine speed check failed:\n{proc.stdout}\n{proc.stderr}"
    )


# -- trajectory emission (python benchmarks/bench_engine_speed.py) ------------

#: Serial engine throughput measured on this machine immediately before
#: the hot-loop fast path landed (same protocol as _serial_rates: gcc,
#: 200k instructions, no warmup, best-of-5).  Kept so the emitted
#: trajectory records the measured improvement, not just a snapshot.
PRE_FAST_PATH_IPS = {
    "oracle": 466_806,
    "optimistic": 458_281,
    "resume_prefetch": 392_735,
}

_SERIAL_CONFIGS = {
    "oracle": SimConfig(policy=FetchPolicy.ORACLE),
    "optimistic": SimConfig(policy=FetchPolicy.OPTIMISTIC),
    "resume_prefetch": SimConfig(policy=FetchPolicy.RESUME, prefetch=True),
}


def _best_of(n, fn):
    import time

    best = None
    value = None
    for _ in range(n):
        started = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, value


def _serial_rates(repeats=5, trace_length=200_000):
    """Best-of-N serial instructions/second per configuration."""
    program = build_workload("gcc")
    trace = generate_trace(program, trace_length, seed=3)
    rates = {}
    for name, config in _SERIAL_CONFIGS.items():
        elapsed, result = _best_of(
            repeats, lambda c=config: simulate(program, trace, c)
        )
        rates[name] = round(result.counters.instructions / elapsed)
    return rates


def _parallel_rate(trace_length=100_000):
    """Whole-suite ``run_jobs`` sweep throughput on the plan pool
    (instructions/second)."""
    from repro.core.runner import SimulationRunner
    from repro.program.workloads import SUITE

    config = SimConfig(policy=FetchPolicy.RESUME, prefetch=True)
    jobs = [(name, config) for name in SUITE]
    # A fresh runner per repeat: a reused one serves its result memo.
    elapsed, results = _best_of(
        2,
        lambda: SimulationRunner(
            trace_length=trace_length, warmup=0, seed=3
        ).run_jobs(jobs),
    )
    total = sum(r.counters.instructions for r in results)
    return round(total / elapsed), len(jobs)


def _artifact_cache_sweep(repeats=3):
    """Cold vs warm artifact-cache sweeps over the full suite.

    ``prepare`` times workload preparation alone (build + generate vs a
    cache load) — the phase the cache exists to eliminate.  ``end_to_end``
    adds one Resume simulation per benchmark at a short trace length, the
    quick-sweep shape where setup cost dominates wall-clock.  Each mode is
    repeated with a fresh cache directory and best-of-N is reported per
    phase, which cancels machine-wide throughput drift (a cold pass and
    its warm pass cannot be interleaved: warm requires the populated
    cache).
    """
    import tempfile
    import time

    from repro.core.runner import SimulationRunner
    from repro.program.workloads import SUITE

    config = SimConfig(policy=FetchPolicy.RESUME)
    out = {}
    for mode, trace_length in (("prepare", 25_000), ("end_to_end", 10_000)):
        cold_best = warm_best = None
        for _ in range(repeats):
            with tempfile.TemporaryDirectory() as cache_dir:
                timings = []
                for _ in ("cold", "warm"):
                    runner = SimulationRunner(
                        trace_length=trace_length, warmup=0, seed=3,
                        cache_dir=cache_dir,
                    )
                    started = time.perf_counter()
                    for name in SUITE:
                        if mode == "prepare":
                            runner.trace(name)
                        else:
                            runner.run(name, config)
                    timings.append(time.perf_counter() - started)
            cold_best = timings[0] if cold_best is None else min(cold_best, timings[0])
            warm_best = timings[1] if warm_best is None else min(warm_best, timings[1])
        out[mode] = {
            "trace_length": trace_length,
            "cold_s": round(cold_best, 4),
            "warm_s": round(warm_best, 4),
            "speedup": round(cold_best / warm_best, 2),
        }
    out["benchmarks"] = len(SUITE)
    return out


def _replay_sweep(repeats=3, trace_length=20_000):
    """Stream-replay multi-policy × cache-size sweep.

    Architectural branch schedule, gcc: every cell of the sweep shares
    one recorded prediction stream.  ``warm_s`` replays the stream (the
    steady-state sweep shape, stream already cached); ``cold_s`` adds one
    stream build (the first sweep against an empty cache).
    """
    from repro.branch.stream import build_stream

    program = build_workload("gcc")
    trace = generate_trace(program, trace_length, seed=3)
    configs = [
        SimConfig(
            policy=policy,
            branch_schedule="architectural",
            cache=CacheConfig(size_bytes=size),
        )
        for policy in ALL_POLICIES
        for size in (4_096, 16_384)
    ]
    build_s, stream = _best_of(
        repeats, lambda: build_stream(program, trace, configs[0])
    )
    warm_s, _ = _best_of(
        repeats,
        lambda: [simulate(program, trace, c, stream=stream) for c in configs],
    )
    return {
        "trace_length": trace_length,
        "cells": len(configs),
        "stream_build_s": round(build_s, 4),
        "cold_s": round(build_s + warm_s, 4),
        "warm_s": round(warm_s, 4),
    }


def _vector_sweep(repeats=3, trace_length=100_000):
    """Event loop vs vectorized backend on replay-eligible cells.

    Architectural branch schedule, gcc, one shared prediction stream;
    both backends replay it, so the comparison isolates the engine
    itself.  ``perfect_cache`` cells vectorize fully (no cache-timing
    feedback) and carry the speedup floor guarded by
    ``tools/check_engine_speed.py --vector-floor``; ``real_cache``
    cells (8K direct-mapped) run through the exact scalar mirrors and
    are guarded by ``--real-floor``.  Every cell is asserted
    bit-identical across backends before any number is reported.
    """
    from repro.branch.stream import build_stream

    program = build_workload("gcc")
    trace = generate_trace(program, trace_length, seed=3)
    groups = {
        "perfect_cache": [
            SimConfig(
                policy=policy,
                branch_schedule="architectural",
                perfect_cache=True,
            )
            for policy in ALL_POLICIES
        ],
        "real_cache": [
            SimConfig(
                policy=policy,
                branch_schedule="architectural",
                cache=CacheConfig(size_bytes=8_192),
            )
            for policy in ALL_POLICIES
        ],
    }
    stream = build_stream(program, trace, groups["perfect_cache"][0])
    out = {"trace_length": trace_length}

    def sweep(backend, configs):
        results = []
        for config in configs:
            engine = build_engine(
                program, replace(config, engine_backend=backend), stream=stream
            )
            # "auto" picks the vector backend for these eligible cells.
            assert engine.backend == ("vector" if backend == "auto" else backend)
            results.append(engine.run(trace))
        return results

    for name, configs in groups.items():
        event_s, event = _best_of(repeats, lambda: sweep("event", configs))
        vector_s, vector = _best_of(repeats, lambda: sweep("auto", configs))
        for ev, vec in zip(event, vector):
            assert ev == replace(vec, config=ev.config), (
                f"vector backend diverged from event loop ({name})"
            )
        out[name] = {
            "cells": len(configs),
            "event_s": round(event_s, 4),
            "vector_s": round(vector_s, 4),
            "speedup": round(event_s / vector_s, 2),
        }
    return out


def _schedule_overhead(repeats=9, trace_length=200_000, interval=5_000):
    """Static-schedule seam cost on the paper's (whole-run) configurations.

    The ``PolicySchedule`` seam must be invisible when nothing switches:
    a plain static run (``adaptive_interval=None``, the paper's regime)
    is timed against the same run with interval bookkeeping enabled (the
    per-span snapshot/commit machinery at *interval*-instruction
    boundaries, still under one policy).  After one untimed warm-up run
    of each, *repeats* pairs are interleaved, alternating which run of
    the pair goes first, so machine-wide drift and order effects cancel;
    the reported ``overhead`` is the median pair ratio minus one.
    Results are asserted identical before any number is reported.
    """
    import statistics
    import time

    program = build_workload("gcc")
    trace = generate_trace(program, trace_length, seed=3)
    plain_cfg = SimConfig(policy=FetchPolicy.RESUME)
    interval_cfg = replace(plain_cfg, adaptive_interval=interval)
    plain = simulate(program, trace, plain_cfg)
    chunked = simulate(program, trace, interval_cfg)
    assert (
        plain.penalties == chunked.penalties
        and plain.counters == chunked.counters
    ), "interval bookkeeping changed a static run's results"

    def timed(config):
        started = time.perf_counter()
        simulate(program, trace, config)
        return time.perf_counter() - started

    plain_times = []
    interval_times = []
    for pair in range(repeats):
        if pair % 2:
            interval_times.append(timed(interval_cfg))
            plain_times.append(timed(plain_cfg))
        else:
            plain_times.append(timed(plain_cfg))
            interval_times.append(timed(interval_cfg))
    ratios = [i_s / p_s for p_s, i_s in zip(plain_times, interval_times)]
    return {
        "trace_length": trace_length,
        "interval": interval,
        "pairs": repeats,
        "plain_s": round(min(plain_times), 4),
        "interval_s": round(min(interval_times), 4),
        "overhead": round(statistics.median(ratios) - 1.0, 4),
    }


def emit(path):
    """Measure everything and write the trajectory JSON to *path*."""
    import json

    serial = _serial_rates()
    parallel_ips, n_jobs = _parallel_rate()
    cache = _artifact_cache_sweep()
    replay = _replay_sweep()
    vector = _vector_sweep()
    schedule = _schedule_overhead()
    payload = {
        "protocol": {
            "workload": "gcc",
            "serial_trace_length": 200_000,
            "parallel_trace_length": 100_000,
            "repeats": "best-of-5 serial, best-of-2 parallel",
        },
        "serial_ips": serial,
        "parallel": {"ips": parallel_ips, "jobs": n_jobs},
        "artifact_cache": cache,
        "stream_replay": replay,
        "vector_backend": vector,
        "static_schedule": schedule,
        "hot_loop": {
            "pre_fast_path_ips": PRE_FAST_PATH_IPS,
            "ips": serial,
            "speedup": {
                name: round(serial[name] / PRE_FAST_PATH_IPS[name], 3)
                for name in PRE_FAST_PATH_IPS
            },
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\n[trajectory written to {path}]")


if __name__ == "__main__":
    import argparse
    import os

    parser = argparse.ArgumentParser(description="emit BENCH_engine.json")
    parser.add_argument(
        "--emit",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_engine.json",
        ),
        metavar="PATH",
        help="output path (default: <repo root>/BENCH_engine.json)",
    )
    emit(parser.parse_args().emit)

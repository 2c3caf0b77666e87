"""Bytecode gauge: Python bytecodes the event loop runs per simulated
instruction.

Counts every bytecode executed while the gauge cells simulate, through a
``sys.settrace`` opcode tracer.  Unlike a timing, the count does not
depend on the host's load: it is the same on every run of one CPython
minor version (and for any ``PYTHONHASHSEED``), so it can gate changes to
the hot loop deterministically (tests/core/test_bytecode_budget.py).  At
about 9 ns per bytecode on a 2-vCPU VM, it also predicts a cell's CPU
time.

The gauge cells are gcc and doduc under each of the five fetch policies,
paper configuration, 20k-instruction traces (seed 1995) with a 5k
warmup.  One untraced run of every cell comes first, so the lowering
memos (fetch programs, wrong-path segments) are warm and the count is
the steady-state per-cell cost that a sweep pays.

Two more gcc cells are printed after the gauge, outside its total and
the budget: the architectural branch schedule (Resume, same trace and
warmup) replayed on the event loop from a stream recorded beforehand,
and the same cell given no stream, which records its own inside the
run — the path a lone real-cache architectural cell takes.

Usage::

    python tools/count_bytecodes.py            # per function + total
    python tools/count_bytecodes.py --top 40
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from collections.abc import Callable

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.config import ALL_POLICIES, SimConfig  # noqa: E402
from repro.core.engine import simulate  # noqa: E402
from repro.program.workloads import build_workload  # noqa: E402
from repro.trace.generator import generate_trace  # noqa: E402

BENCHMARKS = ("gcc", "doduc")
TRACE_LENGTH = 20_000
WARMUP = 5_000
SEED = 1995


def gauge_cells() -> list[tuple[str, Callable[[], object]]]:
    """``(label, run)`` per gauge cell; ``run()`` simulates the cell."""
    cells = []
    for name in BENCHMARKS:
        program = build_workload(name)
        trace = generate_trace(program, n_instructions=TRACE_LENGTH, seed=SEED)
        for policy in ALL_POLICIES:
            config = SimConfig(policy=policy)
            cells.append((
                f"{name}/{policy.value}",
                lambda p=program, t=trace, c=config: simulate(
                    p, t, c, warmup=WARMUP
                ),
            ))
    return cells


def stream_cells() -> list[tuple[str, Callable[[], object]]]:
    """``(label, run)`` per unbudgeted architectural gcc cell."""
    from dataclasses import replace

    from repro.branch.stream import build_stream

    program = build_workload("gcc")
    trace = generate_trace(program, n_instructions=TRACE_LENGTH, seed=SEED)
    config = SimConfig(branch_schedule="architectural")
    stream = build_stream(program, trace, config)
    replayed = replace(config, engine_backend="event")
    return [
        ("gcc/arch replayed", lambda: simulate(
            program, trace, replayed, warmup=WARMUP, stream=stream
        )),
        ("gcc/arch recording", lambda: simulate(
            program, trace, config, warmup=WARMUP
        )),
    ]


def count_total(run: Callable[[], object]) -> int:
    """Bytecodes executed by ``run()``."""
    total = 0

    def local(frame, event, arg):
        nonlocal total
        if event == "opcode":
            total += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(None)
    return total


def count_by_function(run: Callable[[], object]) -> Counter:
    """Bytecodes executed by ``run()``, keyed by code object."""
    counts: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def gauge_total() -> int:
    """Total bytecodes of the gauge cells, memos warmed first."""
    cells = gauge_cells()
    for _, run in cells:
        run()
    return sum(count_total(run) for _, run in cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--top", type=int, default=25, help="functions to list (default 25)"
    )
    args = parser.parse_args(argv)
    if sys.gettrace() is not None:
        parser.error("another tracer (coverage?) is installed")
    cells = gauge_cells()
    for _, run in cells:
        run()
    by_code: Counter = Counter()
    instructions = TRACE_LENGTH * len(cells)
    print(f"{'cell':<22} {'bytecodes':>12} {'per instr':>10}")
    for label, run in cells:
        counts = count_by_function(run)
        n = sum(counts.values())
        by_code += counts
        print(f"{label:<22} {n:>12,} {n / TRACE_LENGTH:>10.1f}")
    by_name: Counter = Counter()
    for code, n in by_code.items():
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        by_name[f"{module}.{code.co_qualname}"] += n
    total = sum(by_name.values())
    print()
    print(f"{'function':<48} {'bytecodes':>12} {'share':>7} {'per instr':>10}")
    for name, n in by_name.most_common(args.top):
        print(
            f"{name:<48} {n:>12,} {n / total:>7.1%} {n / instructions:>10.2f}"
        )
    print()
    print(
        f"total: {total:,} bytecodes over {len(cells)} cells, "
        f"{total / instructions:.1f} per simulated instruction "
        f"(Python {sys.version_info.major}.{sys.version_info.minor})"
    )
    print()
    print("not budgeted:")
    print(f"{'cell':<22} {'bytecodes':>12} {'per instr':>10}")
    for label, run in stream_cells():
        run()
        n = count_total(run)
        print(f"{label:<22} {n:>12,} {n / TRACE_LENGTH:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

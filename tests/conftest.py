"""Shared fixtures.

The expensive fixtures (synthetic workloads, traces, a shared runner) are
session-scoped: the suite builds each benchmark program once.
"""

from __future__ import annotations

import pytest

import repro.core.runner as runner_module
from repro.core.runner import SimulationRunner
from repro.program.behaviour import LoopBehaviour, PatternBehaviour
from repro.program.builder import ProgramBuilder
from repro.program.program import Program
from repro.trace.generator import generate_trace


def without_plan_counters(registry) -> dict:
    """*registry*'s snapshot bar the ``sweep.plan_*`` counters only a
    planned run (``SimulationRunner.run_many``) publishes."""
    return {
        name: value for name, value in registry.as_dict().items()
        if not name.startswith("sweep.plan_")
    }


@pytest.fixture
def plan_pool(monkeypatch):
    """Force ``SimulationRunner.run_many``'s pool (two workers), so a
    plan runs in forked workers on a one-CPU host too."""
    monkeypatch.setattr(runner_module, "_plan_workers", lambda: 2)


@pytest.fixture(scope="session")
def runner() -> SimulationRunner:
    """A shared runner with short traces (keeps the suite fast)."""
    return SimulationRunner(trace_length=40_000, warmup=10_000, seed=7)


@pytest.fixture(scope="session")
def gcc_run(runner):
    """Prepared (program, trace) for the gcc workload."""
    return runner.prepared("gcc")


def make_loop_program(
    trips: int = 10,
    body_plain: int = 6,
    name: str = "toyloop",
) -> Program:
    """A minimal single-loop program: prologue, loop, epilogue.

    The loop branch is a LoopBehaviour with a fixed trip count, so traces
    are exactly predictable.
    """
    builder = ProgramBuilder(name)
    main = builder.function("main")
    main.block("entry", 2)
    main.cond(
        "loop", body_plain, target="loop", behaviour=LoopBehaviour(trips)
    )
    main.jump("wrap", 1, target="entry")
    return builder.build()


def make_pattern_program(
    pattern: tuple[bool, ...],
    then_plain: int = 3,
    else_plain: int = 3,
    name: str = "toypattern",
) -> Program:
    """A single diamond whose branch follows *pattern* (taken = skip)."""
    builder = ProgramBuilder(name)
    main = builder.function("main")
    main.block("entry", 2)
    main.cond(
        "check", then_plain, target="join",
        behaviour=PatternBehaviour(pattern),
    )
    main.block("else", else_plain)
    main.block("join", 2)
    main.jump("wrap", 0, target="entry")
    return builder.build()


def make_diamond_program(
    entry: int, arms: list[tuple[int, object, int, int]], name: str = "random"
) -> Program:
    """Straight-line diamonds in a loop: an *entry* block, then per arm
    ``(cond_length, behaviour, then_length, join_length)`` a conditional
    that skips its then-block, and a jump back to the entry."""
    builder = ProgramBuilder(name)
    main = builder.function("main")
    main.block("entry", entry)
    for i, (cond_length, behaviour, then_length, join_length) in enumerate(arms):
        main.cond(f"d{i}", cond_length, target=f"j{i}", behaviour=behaviour)
        main.block(f"t{i}", then_length)
        main.block(f"j{i}", join_length)
    main.jump("wrap", 1, target="entry")
    return builder.build()


@pytest.fixture()
def loop_program() -> Program:
    return make_loop_program()


@pytest.fixture()
def loop_trace(loop_program):
    return generate_trace(loop_program, 2_000, seed=3)

"""Deep program validation (call graph + reachability)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ProgramError
from repro.program import ProgramBuilder
from repro.program.behaviour import BiasedBehaviour
from repro.program.validate import (
    assert_valid_deep,
    build_call_graph,
    find_call_cycles,
    unreachable_blocks,
    unreachable_functions,
    validate_deep,
)
from repro.program.workloads import SUITE, build_workload


def clean_program():
    builder = ProgramBuilder("clean")
    main = builder.function("main")
    main.call("c1", 2, callee="leaf")
    main.jump("w", 1, target="c1")
    builder.function("leaf").ret("b", 3)
    return builder.build()


def recursive_program():
    builder = ProgramBuilder("rec")
    main = builder.function("main")
    main.call("c", 1, callee="a")
    main.jump("w", 0, target="c")
    a = builder.function("a")
    a.call("c", 1, callee="b")
    a.ret("r", 1)
    b = builder.function("b")
    b.call("c", 1, callee="a")  # a -> b -> a
    b.ret("r", 1)
    return builder.build()


def orphan_program():
    builder = ProgramBuilder("orphan")
    main = builder.function("main")
    main.jump("w", 3, target="w")
    builder.function("ghost").ret("b", 2)  # never called
    return builder.build()


def dead_block_program():
    builder = ProgramBuilder("dead")
    main = builder.function("main")
    main.jump("a", 2, target="a")   # tight loop
    main.block("island", 5)          # unreachable
    main.ret("r", 1)
    return builder.build()


class TestCallGraph:
    def test_edges(self):
        program = clean_program()
        graph = build_call_graph(program.cfg)
        assert graph.has_edge("main", "leaf")
        assert not graph.has_edge("leaf", "main")

    def test_indirect_edges_counted(self):
        from repro.program.behaviour import IndirectBehaviour

        builder = ProgramBuilder("ind")
        main = builder.function("main")
        main.icall("d", 1, callees=["x", "y"], behaviour=IndirectBehaviour(2))
        main.jump("w", 0, target="d")
        builder.function("x").ret("b", 2)
        builder.function("y").ret("b", 2)
        program = builder.build()
        graph = build_call_graph(program.cfg)
        assert graph.has_edge("main", "x")
        assert graph.has_edge("main", "y")

    def test_cycle_detection(self):
        assert find_call_cycles(clean_program().cfg) == []
        cycles = find_call_cycles(recursive_program().cfg)
        assert cycles
        assert set(cycles[0]) == {"a", "b"}


class TestReachability:
    def test_all_reachable_in_clean(self):
        assert unreachable_functions(clean_program().cfg) == set()

    def test_orphan_function_found(self):
        assert unreachable_functions(orphan_program().cfg) == {"ghost"}

    def test_dead_block_found(self):
        program = dead_block_program()
        dead = unreachable_blocks(program.cfg.functions["main"])
        assert dead == {"island", "r"}

    def test_cond_reaches_both_arms(self):
        builder = ProgramBuilder("cond")
        main = builder.function("main")
        main.cond("c", 1, target="t", behaviour=BiasedBehaviour(0.5))
        main.block("f", 1)
        main.block("t", 1)
        main.jump("w", 0, target="c")
        program = builder.build()
        assert unreachable_blocks(program.cfg.functions["main"]) == set()


class TestValidateDeep:
    def test_clean_report(self):
        report = validate_deep(clean_program())
        assert report.clean
        assert report.describe() == "no issues"

    def test_dirty_report_describes_everything(self):
        report = validate_deep(recursive_program())
        assert not report.clean
        assert "call cycle" in report.describe()

    def test_assert_raises_on_issues(self):
        with pytest.raises(ProgramError, match="deep validation"):
            assert_valid_deep(orphan_program())

    def test_assert_passes_clean(self):
        assert_valid_deep(clean_program())

    def test_cfg_required(self):
        import dataclasses

        program = dataclasses.replace(clean_program(), cfg=None)
        with pytest.raises(ProgramError, match="carries no CFG"):
            validate_deep(program)


@pytest.mark.parametrize("name", SUITE)
def test_every_shipped_workload_validates_clean(name):
    """All 13 benchmarks must be DAG-called with no dead code."""
    assert_valid_deep(build_workload(name))


def test_import_repro_leaves_networkx_unloaded():
    """Only the deep checks need networkx, so they import it themselves."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, repro, repro.program, repro.experiments.cli; "
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"

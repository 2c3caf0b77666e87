"""Deep static validation of synthetic programs.

The structural checks in :mod:`repro.program.cfg` are local (labels
resolve, blocks non-empty).  This module adds whole-program analyses over
the call graph and per-function control-flow graphs (built with
networkx):

* **call-graph acyclicity** — the trace generator requires a DAG call
  graph (recursion would run its call stack away; it guards with a depth
  limit at run time, but a static check fails fast and names the cycle);
* **function reachability** — tier functions that can never execute are
  calibration bugs (their footprint counts, their dynamics don't);
* **block reachability** — dead blocks inside a function distort the
  size budgeting of the synthesiser.

`validate_deep` runs everything and returns a report; the workload test
suite asserts every shipped benchmark passes clean.  networkx is
imported only when a graph is built, so ``import repro`` stays free of
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ProgramError
from repro.isa import InstrKind
from repro.program.cfg import ControlFlowGraph, Function
from repro.program.program import Program

if TYPE_CHECKING:
    import networkx as nx


def build_call_graph(cfg: ControlFlowGraph) -> "nx.DiGraph":
    """Directed call graph: function -> callee (direct and indirect)."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(cfg.functions)
    for name, function in cfg.functions.items():
        for block in function.blocks:
            term = block.terminator
            if term is None:
                continue
            if term.callee is not None:
                graph.add_edge(name, term.callee)
            for callee in term.indirect_callees:
                graph.add_edge(name, callee)
    return graph


def find_call_cycles(cfg: ControlFlowGraph) -> list[list[str]]:
    """All elementary cycles in the call graph (empty = DAG)."""
    import networkx as nx

    return [list(cycle) for cycle in nx.simple_cycles(build_call_graph(cfg))]


def unreachable_functions(cfg: ControlFlowGraph) -> set[str]:
    """Functions not reachable from the entry via the call graph."""
    import networkx as nx

    graph = build_call_graph(cfg)
    reachable = nx.descendants(graph, cfg.entry) | {cfg.entry}
    return set(cfg.functions) - reachable


def build_block_graph(function: Function) -> "nx.DiGraph":
    """Intra-function CFG: block -> successor blocks.

    Fall-through edges go to the next declared block; conditional edges go
    to both the target and the fall-through; calls fall through to the
    next block (the callee returns there); returns have no successor.
    """
    import networkx as nx

    graph = nx.DiGraph()
    labels = [block.label for block in function.blocks]
    graph.add_nodes_from(labels)
    for index, block in enumerate(function.blocks):
        term = block.terminator
        nxt = labels[index + 1] if index + 1 < len(labels) else None
        if term is None:
            graph.add_edge(block.label, nxt)
            continue
        kind = term.kind
        if kind is InstrKind.COND_BRANCH:
            graph.add_edge(block.label, term.target_label)
            graph.add_edge(block.label, nxt)
        elif kind is InstrKind.JUMP:
            graph.add_edge(block.label, term.target_label)
        elif kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL):
            graph.add_edge(block.label, nxt)
        # RETURN: no intra-function successor.
    return graph


def unreachable_blocks(function: Function) -> set[str]:
    """Blocks not reachable from the function's entry block."""
    if not function.blocks:
        return set()
    import networkx as nx

    graph = build_block_graph(function)
    entry = function.blocks[0].label
    reachable = nx.descendants(graph, entry) | {entry}
    return {block.label for block in function.blocks} - reachable


@dataclass(slots=True)
class ValidationReport:
    """Outcome of :func:`validate_deep`."""

    call_cycles: list[list[str]] = field(default_factory=list)
    unreachable_functions: set[str] = field(default_factory=set)
    unreachable_blocks: dict[str, set[str]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True if no issue was found."""
        return (
            not self.call_cycles
            and not self.unreachable_functions
            and not self.unreachable_blocks
        )

    def describe(self) -> str:
        """Human-readable issue summary."""
        if self.clean:
            return "no issues"
        lines = []
        for cycle in self.call_cycles:
            lines.append(f"call cycle: {' -> '.join(cycle + cycle[:1])}")
        if self.unreachable_functions:
            lines.append(
                "unreachable functions: "
                + ", ".join(sorted(self.unreachable_functions))
            )
        for name, blocks in sorted(self.unreachable_blocks.items()):
            lines.append(
                f"unreachable blocks in {name}: " + ", ".join(sorted(blocks))
            )
        return "\n".join(lines)


def validate_deep(program: Program) -> ValidationReport:
    """Run all whole-program analyses on *program*.

    Requires the program to carry its CFG (anything built through
    :class:`~repro.program.builder.ProgramBuilder` does).
    """
    if program.cfg is None:
        raise ProgramError(
            f"program {program.name!r} carries no CFG; deep validation "
            "needs builder-made programs"
        )
    cfg = program.cfg
    report = ValidationReport(
        call_cycles=find_call_cycles(cfg),
        unreachable_functions=unreachable_functions(cfg),
    )
    for name, function in cfg.functions.items():
        dead = unreachable_blocks(function)
        if dead:
            report.unreachable_blocks[name] = dead
    return report


def assert_valid_deep(program: Program) -> None:
    """Raise :class:`ProgramError` if any deep-validation issue exists."""
    report = validate_deep(program)
    if not report.clean:
        raise ProgramError(
            f"program {program.name!r} failed deep validation:\n"
            + report.describe()
        )

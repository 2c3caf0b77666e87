"""simflow: the whole-program (flow-aware) layer of simlint.

Per-file rules see one AST at a time; the invariants this package
polices — determinism, a non-blocked event loop, factory-only
construction of engine seams — are properties of *call paths*, and a
call path rarely stays inside one file.  The layer runs in two phases:

1. **index** (:mod:`~repro.lint.flow.indexer`): every file becomes a
   :class:`~repro.lint.flow.facts.ModuleSummary` of per-function call
   sites and local effect facts, built in process from the tree the
   per-file phase already parsed;
2. **analyze** (:mod:`~repro.lint.flow.symbols`,
   :mod:`~repro.lint.flow.callgraph`): the summaries join into a
   repo-wide symbol table and call graph, over which the flow rules —
   SIM014 (:mod:`~repro.lint.flow.taint`), SIM015
   (:mod:`~repro.lint.flow.blocking`), SIM016
   (:mod:`~repro.lint.flow.seams`) — run fixed-point label
   propagations and report each violation with the concrete call chain
   that produced it.

The rules register into the same registry, config, and suppression
machinery as the per-file rules; the driver
(:func:`repro.lint.runner.run_lint`) decides when the phases run.
"""

from repro.lint.flow.callgraph import CallGraph, Node
from repro.lint.flow.facts import ModuleSummary
from repro.lint.flow.indexer import index_module, index_tree
from repro.lint.flow.project import FlowStats, ProjectContext
from repro.lint.flow.symbols import SymbolTable, node_id

__all__ = [
    "CallGraph",
    "FlowStats",
    "ModuleSummary",
    "Node",
    "ProjectContext",
    "SymbolTable",
    "index_module",
    "index_tree",
    "node_id",
]

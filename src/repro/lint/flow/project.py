"""Phase assembly: the whole-program context the flow rules receive.

:class:`ProjectContext` joins the phase-1 :class:`ModuleSummary` facts
into a :class:`~repro.lint.flow.symbols.SymbolTable` and
:class:`~repro.lint.flow.callgraph.CallGraph`, plus the run's config and
indexing statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.facts import ModuleSummary
from repro.lint.flow.symbols import SymbolTable


@dataclass(slots=True)
class FlowStats:
    """Phase-1 accounting surfaced in the JSON report and tests."""

    #: Files indexed this run.
    files_indexed: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"files_indexed": self.files_indexed}


class ProjectContext:
    """Everything a flow rule may inspect about the whole program."""

    def __init__(
        self,
        root: Path,
        config: LintConfig,
        summaries: list[ModuleSummary],
        stats: FlowStats | None = None,
    ) -> None:
        self.root = root
        self.config = config
        self.summaries = summaries
        self.stats = stats or FlowStats()
        self.symbols = SymbolTable(summaries)
        self.graph = CallGraph(summaries, self.symbols)


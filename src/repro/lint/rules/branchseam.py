"""SIM010: branch units are constructed only through the factory seam.

Prediction-stream replay (``repro.branch.stream``) works because every
simulation obtains its branch unit through ``build_branch_unit``, the
one seam where a recorded stream can be substituted for the live
predictor.  A ``BranchUnit(...)`` (or ``ReplayBranchUnit(...)``)
constructed directly anywhere else silently bypasses that seam: the
cell runs live even when a stream was requested, and replay coverage
quietly erodes.  This rule flags direct constructions in every linted
module (the package, tools, benchmarks and examples alike) outside the
two sanctioned factories (``build_branch_unit`` and
``make_paper_branch_unit``).  A helper that wraps a construction cannot
hide it: the construction itself sits outside a factory, so it is
flagged where it stands.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.registry import RawFinding, Rule, register

#: Constructors that must go through the seam.
_UNIT_CLASSES = frozenset({"BranchUnit", "ReplayBranchUnit"})

#: Functions allowed to construct branch units directly: the seam itself
#: and the paper-parameter convenience factory it delegates to.
_ALLOWED_FACTORIES = frozenset({"build_branch_unit", "make_paper_branch_unit"})


def _constructed_class(call: ast.Call) -> str | None:
    """The branch-unit class a call constructs, or ``None``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in _UNIT_CLASSES:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _UNIT_CLASSES:
        return func.attr
    return None


@register
class BranchSeamRule(Rule):
    id = "SIM010"
    name = "branch-seam"
    description = (
        "branch units are constructed only inside build_branch_unit / "
        "make_paper_branch_unit (the prediction-stream replay seam)"
    )

    def check(self, ctx: FileContext) -> Iterator[RawFinding]:
        yield from self._walk(ctx.tree, inside_factory=False)

    def _walk(self, node: ast.AST, inside_factory: bool) -> Iterator[RawFinding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk(
                    child,
                    inside_factory or child.name in _ALLOWED_FACTORIES,
                )
                continue
            if isinstance(child, ast.Call) and not inside_factory:
                cls = _constructed_class(child)
                if cls is not None:
                    yield (
                        child.lineno,
                        child.col_offset,
                        f"direct {cls}(...) construction bypasses the "
                        f"replay seam; obtain branch units through "
                        f"build_branch_unit (or make_paper_branch_unit)",
                    )
            yield from self._walk(child, inside_factory)

"""The factory-seam walker that SIM010 and SIM011 share.

A seam rule names the classes that may be constructed only inside a set
of factory functions.  :class:`SeamRule` flags every call that
constructs one of them (``Cls(...)`` or ``module.Cls(...)``) outside a
function named after a factory, at any nesting depth, in every linted
module.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.registry import RawFinding, Rule


class SeamRule(Rule):
    """A rule keeping *classes* behind the *factories*; subclasses set
    the three attributes below."""

    #: Constructors that must go through the seam.
    classes: frozenset[str] = frozenset()
    #: Functions allowed to construct them directly.
    factories: frozenset[str] = frozenset()
    #: The finding, formatted with the constructed class as ``{cls}``.
    message: str = ""

    def check(self, ctx: FileContext) -> Iterator[RawFinding]:
        yield from self._walk(ctx.tree, inside_factory=False)

    def _constructed_class(self, call: ast.Call) -> str | None:
        """The seam-guarded class *call* constructs, or ``None``."""
        func = call.func
        if isinstance(func, ast.Name) and func.id in self.classes:
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in self.classes:
            return func.attr
        return None

    def _walk(self, node: ast.AST, inside_factory: bool) -> Iterator[RawFinding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk(
                    child, inside_factory or child.name in self.factories
                )
                continue
            if isinstance(child, ast.Call) and not inside_factory:
                cls = self._constructed_class(child)
                if cls is not None:
                    yield (
                        child.lineno,
                        child.col_offset,
                        self.message.format(cls=cls),
                    )
            yield from self._walk(child, inside_factory)

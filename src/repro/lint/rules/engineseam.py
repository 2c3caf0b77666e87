"""SIM011: engines are constructed only through the factory seam.

The vectorized batch backend (``repro.core.vector``) works because every
simulation obtains its engine through ``build_engine``, the one seam
where backend selection, replay-stream availability, and observer
constraints are all checked.  A ``FetchEngine(...)`` (or
``VectorEngine(...)``) constructed directly anywhere else silently
bypasses that seam: the cell pins one backend regardless of the
``engine_backend`` knob, and the cross-backend differential guarantees
quietly erode.  The same seam discipline covers the lowered state the
engines run on: the ``FetchProgram`` and its ``FlatProbes``
(``repro.core.lowering``), a stream's ``RecordedWalks``
(``repro.branch.stream``) and the vector backend's ``TraceArrays``
(``repro.core.vector_kernels``) are memoized read-only data shared
across engines and ``AdaptiveEngine`` forks, and a direct construction
launders a private un-memoized copy past that sharing (and past the
identity keying that makes it correct).  This rule flags direct
constructions in the determinism modules outside the sanctioned
factories (``build_engine`` and the lowering factories
``fetch_program``, ``flat_probes``, ``recorded_walks`` and
``trace_arrays``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.registry import RawFinding, Rule, register

#: Constructors that must go through a seam: the engines themselves and
#: the lowered state they run on.
_ENGINE_CLASSES = frozenset(
    {
        "FetchEngine",
        "VectorEngine",
        "FetchProgram",
        "FlatProbes",
        "RecordedWalks",
        "TraceArrays",
    }
)

#: Functions allowed to construct seam-guarded classes directly: the
#: engine seam and the memoized lowering factories.
_ALLOWED_FACTORIES = frozenset(
    {
        "build_engine",
        "fetch_program",
        "flat_probes",
        "recorded_walks",
        "trace_arrays",
    }
)


def _constructed_class(call: ast.Call) -> str | None:
    """The engine class a call constructs, or ``None``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in _ENGINE_CLASSES:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _ENGINE_CLASSES:
        return func.attr
    return None


@register
class EngineSeamRule(Rule):
    id = "SIM011"
    name = "engine-seam"
    description = (
        "engines are constructed only inside build_engine (the "
        "backend-selection seam)"
    )

    def check(self, ctx: FileContext) -> Iterator[RawFinding]:
        if not ctx.in_modules(ctx.repo.config.determinism_modules):
            return
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
                        f"backend-selection seam; obtain engines through "
                        f"build_engine",
                    )
            yield from self._walk(child, inside_factory)

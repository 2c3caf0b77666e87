"""Phase 1: index one source file into a :class:`ModuleSummary`.

:func:`index_module` is a pure function of ``(relpath, module, source)``
— it parses the text, walks the tree once, and records per-function call
sites and effect facts.  The lint runner calls :func:`index_tree` on
the tree the per-file phase already parsed, so no file is parsed twice.

Resolution here is *local only*: import aliases are applied
(``from time import sleep`` → ``time.sleep``), module-level definitions
qualify bare names (``helper()`` → ``pkg.mod.helper``), and
``self.x(...)`` is recorded as a self-call for phase 2 to resolve
against the class.  Anything genuinely dynamic (calls on arbitrary
expressions, getattr, callbacks) is dropped, never guessed — the flow
rules prefer missed edges over false taint.

The effect detectors deliberately reuse the per-file rules' tables
(:mod:`repro.lint.rules.determinism` for nondeterminism sources,
:func:`repro.lint.rules.ordering._unordered_reason` for unordered
iteration) so a source that SIM001/SIM002 would flag directly is exactly
the source SIM014 propagates transitively — one definition of
"nondeterministic", two ranges.
"""

from __future__ import annotations

import ast

from repro.lint.asthelpers import dotted_name, import_aliases, resolve_name
from repro.lint.flow.facts import (
    BLOCKING_BUILTINS,
    BLOCKING_CALLS,
    MODULE_BODY,
    SEAM_CLASSES,
    CallSite,
    ClassFact,
    Effect,
    FunctionFact,
    ModuleSummary,
)
from repro.lint.rules.determinism import (
    BANNED_CALLS,
    GLOBAL_RANDOM_FUNCS,
    NUMPY_NEUTRAL,
    NUMPY_SEEDABLE,
)
from repro.lint.rules.ordering import OrderedIterationRule, _unordered_reason

#: BANNED_CALLS partitioned into taint kinds.
_CLOCK_CALLS = frozenset(
    name
    for name in BANNED_CALLS
    if name.startswith(("time.", "datetime."))
)
_ENTROPY_CALLS = BANNED_CALLS - _CLOCK_CALLS


def _nondet_call(target: str, call: ast.Call) -> tuple[str, str] | None:
    """(kind, detail) when *target* is a nondeterminism source call."""
    if target in _CLOCK_CALLS:
        return "clock", f"{target}()"
    if target in _ENTROPY_CALLS:
        return "entropy", f"{target}()"
    if target == "id":
        return "id", "id()"
    head, _, tail = target.rpartition(".")
    if head == "random" and tail in GLOBAL_RANDOM_FUNCS:
        return "rng", f"{target}()"
    if target in (
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
    ):
        if not call.args and not call.keywords:
            return "rng", f"unseeded {target}()"
        return None  # seeded construction: the sanctioned idiom
    if head == "numpy.random" and tail not in NUMPY_SEEDABLE | NUMPY_NEUTRAL:
        return "rng", f"{target}()"
    return None


class _FunctionWalker:
    """Collect the calls and effects of one function body.

    Walks every node that executes when the function runs; nested
    ``def``/``async def``/``lambda`` bodies are skipped (they execute
    when *called*), but their decorators and default expressions do run
    at definition time and stay in this walk.
    """

    def __init__(self, indexer: _ModuleIndexer, qualpath: str,
                 nested_names: dict[str, str]) -> None:
        self.indexer = indexer
        self.qualpath = qualpath
        #: bare nested-def name -> full qualpath (for "local" call kinds).
        self.nested_names = nested_names
        self.calls: list[CallSite] = []
        self.nondet: list[Effect] = []
        self.blocking: list[Effect] = []
        self.constructs: list[Effect] = []
        self.mutates: list[str] = []

    def walk(self, nodes: list[ast.stmt]) -> None:
        for node in nodes:
            self._visit(node, in_sorted=False)

    def _visit(self, node: ast.AST, in_sorted: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # The body runs later; decorators and defaults run now.
            for expr in (
                *node.decorator_list,
                *node.args.defaults,
                *(d for d in node.args.kw_defaults if d is not None),
            ):
                self._visit(expr, in_sorted=False)
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, in_sorted)
            # Arguments of sorted(...) are order-sanitized call sites.
            sanitizing = (
                isinstance(node.func, ast.Name) and node.func.id == "sorted"
            )
            self._visit(node.func, in_sorted=False)
            for child in (*node.args, *node.keywords):
                self._visit(child, in_sorted=sanitizing)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                self._record_self_mutation(target)
        self._record_unordered_iteration(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child, in_sorted=False)

    # -- effects --------------------------------------------------------------

    def _record_self_mutation(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.qualpath.rpartition(".")[2] != "__init__"
            and target.attr not in self.mutates
        ):
            self.mutates.append(target.attr)

    def _record_unordered_iteration(self, node: ast.AST) -> None:
        iterables: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            iterables.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call):
            iterables.extend(OrderedIterationRule._collector_args(node))
        for iterable in iterables:
            reason = _unordered_reason(iterable)
            if reason is not None:
                self.nondet.append(
                    Effect(
                        kind="ordering",
                        detail=f"iteration over {reason}",
                        line=iterable.lineno,
                        col=iterable.col_offset,
                    )
                )

    def _visit_call(self, call: ast.Call, in_sorted: bool) -> None:
        func = call.func
        line, col = call.lineno, call.col_offset
        # Seam-class construction (matched by terminal name, like
        # SIM010/SIM011, so ``engine.FetchEngine(...)`` is caught too).
        terminal = None
        if isinstance(func, ast.Name):
            terminal = func.id
        elif isinstance(func, ast.Attribute):
            terminal = func.attr
        if terminal in SEAM_CLASSES:
            self.constructs.append(
                Effect(
                    kind=terminal, detail=f"{terminal}(...)",
                    line=line, col=col,
                )
            )
        name = dotted_name(func)
        if name is None:
            return
        head, _, rest = name.partition(".")
        if head in ("self", "cls") and rest:
            self.calls.append(
                CallSite(
                    target=rest, kind="self",
                    line=line, col=col, in_sorted=in_sorted,
                )
            )
            return
        resolved = resolve_name(func, self.indexer.aliases)
        if resolved is None:
            return
        # Local effects first: sources and blockers are facts even when
        # the callee is not a repo function.
        nondet = _nondet_call(resolved, call)
        if nondet is not None:
            kind, detail = nondet
            if not (in_sorted and kind == "ordering"):
                self.nondet.append(
                    Effect(kind=kind, detail=detail, line=line, col=col)
                )
        if resolved in BLOCKING_CALLS or (
            resolved in BLOCKING_BUILTINS
            and resolved not in self.indexer.aliases
        ):
            self.blocking.append(
                Effect(
                    kind=resolved, detail=f"{resolved}()",
                    line=line, col=col,
                )
            )
        # The call edge itself.
        if "." not in name and name in self.nested_names:
            self.calls.append(
                CallSite(
                    target=self.nested_names[name], kind="local",
                    line=line, col=col, in_sorted=in_sorted,
                )
            )
            return
        if "." not in name and name not in self.indexer.aliases:
            # A bare name: either a module-level definition or a builtin.
            if name in self.indexer.toplevel:
                resolved = f"{self.indexer.module}.{name}"
            else:
                return  # builtin or dynamic local — no edge
        self.calls.append(
            CallSite(
                target=resolved, kind="abs",
                line=line, col=col, in_sorted=in_sorted,
            )
        )


class _ModuleIndexer:
    """Single-pass tree walk producing a :class:`ModuleSummary`."""

    def __init__(self, tree: ast.Module, relpath: str, module: str) -> None:
        self.tree = tree
        self.relpath = relpath
        self.module = module
        self.aliases = import_aliases(tree)
        #: Names defined at module level (functions and classes), used
        #: to qualify bare-name calls.
        self.toplevel = {
            node.name
            for node in tree.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        }
        self.summary = ModuleSummary(
            relpath=relpath,
            module=module,
            imports=dict(self.aliases),
        )

    def index(self) -> ModuleSummary:
        module_stmts = [
            stmt
            for stmt in self.tree.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        self._index_function(
            MODULE_BODY, line=1, is_async=False, body=module_stmts
        )
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_def(stmt, prefix="")
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(stmt)
        return self.summary

    def _index_class(self, node: ast.ClassDef) -> None:
        fact = ClassFact(
            name=node.name,
            line=node.lineno,
            methods=tuple(
                stmt.name
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            ),
            bases=tuple(
                base
                for base in (
                    resolve_name(b, self.aliases) for b in node.bases
                )
                if base is not None
            ),
        )
        self.summary.classes[node.name] = fact
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_def(stmt, prefix=f"{node.name}.")
                self._infer_attr_types(stmt, fact)

    def _index_def(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, prefix: str
    ) -> None:
        qualpath = f"{prefix}{node.name}"
        direct = _direct_nested_defs(node.body)
        self._index_function(
            qualpath,
            line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            body=node.body,
            nested_names={
                d.name: f"{qualpath}.<locals>.{d.name}" for d in direct
            },
        )
        # Nested definitions become their own nodes so off-loop sync
        # helpers inside async handlers keep their own blocking facts.
        for child in direct:
            self._index_def(child, prefix=f"{qualpath}.<locals>.")

    def _index_function(
        self,
        qualpath: str,
        line: int,
        is_async: bool,
        body: list[ast.stmt],
        nested_names: dict[str, str] | None = None,
    ) -> None:
        walker = _FunctionWalker(self, qualpath, nested_names or {})
        walker.walk(body)
        self.summary.functions[qualpath] = FunctionFact(
            qualpath=qualpath,
            line=line,
            is_async=is_async,
            calls=tuple(walker.calls),
            nondet=tuple(walker.nondet),
            blocking=tuple(walker.blocking),
            constructs=tuple(walker.constructs),
            mutates=tuple(walker.mutates),
        )

    # -- attribute-type inference ---------------------------------------------

    def _infer_attr_types(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef, fact: ClassFact
    ) -> None:
        """Record ``self.<attr>`` types a method makes syntactically plain.

        Two patterns, both exact: ``self.x = ClassName(...)`` (the
        constructed class, alias-resolved) and ``self.x = param`` where
        *param* is annotated with a resolvable class name.  Re-assigning
        an attribute to something unresolvable erases the inference —
        half-knowledge must not survive as false certainty.
        """
        annotations: dict[str, str] = {}
        for arg in (*method.args.posonlyargs, *method.args.args,
                    *method.args.kwonlyargs):
            resolved = self._annotation_class(arg.annotation)
            if resolved is not None:
                annotations[arg.arg] = resolved
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            inferred: str | None = None
            value = node.value
            if isinstance(value, ast.Call):
                name = resolve_name(value.func, self.aliases)
                if name is not None:
                    head = name.partition(".")[0]
                    if head in self.toplevel:
                        name = f"{self.module}.{name}"
                    inferred = name
            elif isinstance(value, ast.Name):
                inferred = annotations.get(value.id)
            if inferred is not None:
                fact.attr_types[target.attr] = inferred
            else:
                fact.attr_types.pop(target.attr, None)

    def _annotation_class(self, annotation: ast.expr | None) -> str | None:
        """Dotted class name from a simple annotation (or ``None``).

        Handles ``ResultStore``, ``mod.ResultStore``, and
        ``ResultStore | None``; anything fancier (strings, subscripts)
        is ignored rather than misread.
        """
        if annotation is None:
            return None
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            for side in (annotation.left, annotation.right):
                if isinstance(side, ast.Constant) and side.value is None:
                    continue
                resolved = self._annotation_class(side)
                if resolved is not None:
                    return resolved
            return None
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            name = resolve_name(annotation, self.aliases)
            if name is None:
                return None
            head = name.partition(".")[0]
            if head in self.toplevel:
                return f"{self.module}.{name}"
            return name
        return None


def _direct_nested_defs(
    body: list[ast.stmt],
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Defs whose nearest enclosing function is the *body*'s owner.

    Source order is preserved; defs inside deeper functions or lambdas
    belong to those scopes and are excluded.
    """
    found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    def scan(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(child)
                continue
            if isinstance(child, ast.Lambda):
                continue
            scan(child)

    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(stmt)
        elif not isinstance(stmt, ast.Lambda):
            scan(stmt)
    return found


def index_module(source: str, relpath: str, module: str) -> ModuleSummary:
    """Index *source* into a summary (raises ``SyntaxError`` on bad text)."""
    tree = ast.parse(source, filename=relpath)
    return index_tree(tree, relpath, module)


def index_tree(tree: ast.Module, relpath: str, module: str) -> ModuleSummary:
    """Index an already-parsed *tree* (what the lint runner does)."""
    return _ModuleIndexer(tree, relpath, module).index()

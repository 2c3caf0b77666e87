"""SIM003: exception types must survive the process-pool boundary.

Sweep service workers report failure by raising; the exception is
pickled in the worker, unpickled in the service, and fed to
``is_transient`` to decide retry-vs-fail-fast.  (A plan pool worker of
``SimulationRunner.run_many`` returns its cell's exception inside the
outcome, so it crosses the same boundary.)  Two static properties
make that safe:

* the class must be importable at module level — an exception defined
  inside a function unpickles as ``AttributeError: can't get attribute``
  in the parent, turning a precise failure into a pool crash;
* extra constructor state must survive the ``(class, args)``
  round-trip.  Exceptions pickle by re-calling ``cls(*self.args)``, and
  ``self.args`` is whatever reached ``BaseException.__init__`` — so an
  ``__init__(self, message, transient=True)`` that forwards only
  ``message`` silently resets ``transient`` to its default on the far
  side of the pool.  That is the PR 3 ``InjectedFault.__reduce__``
  regression, generalised: any exception ``__init__`` with defaulted or
  extra parameters needs a ``__reduce__`` (or must forward every
  parameter to ``super().__init__``).

The companion runtime guard is ``tests/core/test_error_pickling.py``,
which round-trips every concrete taxonomy type through pickle.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.asthelpers import (
    is_builtin_exception,
    looks_like_exception,
    terminal_name,
    walk_with_parents,
)
from repro.lint.context import FileContext
from repro.lint.registry import RawFinding, Rule, register


def _is_exception_class(node: ast.ClassDef, taxonomy: frozenset[str]) -> bool:
    for base in node.bases:
        name = terminal_name(base)
        if name is None:
            continue
        if name in taxonomy or is_builtin_exception(name) or looks_like_exception(name):
            return True
    return looks_like_exception(node.name)


def _method(node: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == name:
            return item
    return None


def _init_param_count(init: ast.FunctionDef) -> tuple[int, bool]:
    """(# parameters after self, any parameter has a default)."""
    args = init.args
    positional = args.posonlyargs + args.args
    count = max(len(positional) - 1, 0)  # drop self
    count += len(args.kwonlyargs)
    if args.vararg is not None or args.kwarg is not None:
        count += 1
    has_default = bool(args.defaults) or any(
        default is not None for default in args.kw_defaults
    )
    return count, has_default


def _super_init_arg_count(init: ast.FunctionDef) -> int | None:
    """Args forwarded to ``super().__init__(...)`` (None if no such call)."""
    for node in ast.walk(init):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__init__"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        ):
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                return None  # *args forwarding: assume everything passes
            return len(node.args) + len(node.keywords)
    return 0


@register
class PoolPicklableRule(Rule):
    id = "SIM003"
    name = "pool-picklable"
    description = (
        "exception classes must be module-level and round-trip pickle "
        "(the InjectedFault.__reduce__ regression class)"
    )

    def check(self, ctx: FileContext) -> Iterator[RawFinding]:
        taxonomy = ctx.repo.taxonomy_types
        for node, parents in walk_with_parents(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_exception_class(node, taxonomy):
                continue
            if any(
                isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef))
                for p in parents
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"exception class {node.name} is defined inside a "
                    f"function; it cannot be unpickled across the "
                    f"process-pool boundary",
                )
                continue
            message = self._args_roundtrip_violation(node)
            if message is not None:
                yield node.lineno, node.col_offset, message

    @staticmethod
    def _args_roundtrip_violation(node: ast.ClassDef) -> str | None:
        init = _method(node, "__init__")
        if init is None:
            return None
        if _method(node, "__reduce__") is not None:
            return None
        if _method(node, "__getnewargs__") is not None:
            return None
        param_count, has_default = _init_param_count(init)
        if param_count == 0:
            return None
        forwarded = _super_init_arg_count(init)
        if forwarded is None or forwarded >= param_count:
            return None
        if has_default or forwarded < param_count:
            return (
                f"exception {node.name}.__init__ takes {param_count} "
                f"parameter(s) but forwards {forwarded} to "
                f"super().__init__; state will not survive pickling "
                f"across the process pool — define __reduce__ "
                f"(see InjectedFault)"
            )
        return None

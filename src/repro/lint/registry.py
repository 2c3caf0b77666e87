"""Rule base class and the global rule registry.

A rule (:class:`Rule`) is a ``check(ctx)`` generator yielding
``(line, col, message)`` triples for one :class:`FileContext`.  Rules
register themselves with the :func:`register` decorator at import
time; :func:`all_rules` returns fresh instances in id order, so a lint
run never shares mutable rule state with a previous one.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import ExperimentError

from repro.lint.context import FileContext
from repro.lint.findings import SEVERITIES

#: One raw violation before it is bound to a rule/severity/path.
RawFinding = tuple[int, int, str]


class Rule:
    """Base class for simlint rules (subclass and :func:`register`)."""

    #: Stable identifier used in reports, config, and suppressions.
    id: str = ""
    #: Short human slug, e.g. ``"determinism"``.
    name: str = ""
    #: One-line description shown by ``--list-rules``.
    description: str = ""
    #: Severity when the config does not override it.
    default_severity: str = "error"

    def check(self, ctx: FileContext) -> Iterator[RawFinding]:
        """Yield ``(line, col, message)`` for each violation in *ctx*."""
        raise NotImplementedError
        yield  # pragma: no cover - makes every override a generator


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding *rule_cls* to the global registry."""
    if not rule_cls.id or not rule_cls.name:
        raise ExperimentError(
            f"rule {rule_cls.__name__} must define id and name"
        )
    if rule_cls.default_severity not in SEVERITIES:
        raise ExperimentError(
            f"rule {rule_cls.id} has bad default severity "
            f"{rule_cls.default_severity!r}"
        )
    existing = _REGISTRY.get(rule_cls.id)
    if existing is not None and existing is not rule_cls:
        raise ExperimentError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in id order."""
    import repro.lint.rules  # noqa: F401  (registers the built-in rules)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def known_rule_ids() -> list[str]:
    """Ids of every registered rule, sorted."""
    import repro.lint.rules  # noqa: F401

    return sorted(_REGISTRY)

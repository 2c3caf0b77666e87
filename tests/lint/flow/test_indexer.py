"""Phase-1 indexing: fact extraction from source text and parsed trees."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.lint.flow.facts import MODULE_BODY, ModuleSummary
from repro.lint.flow.indexer import index_module, index_tree

pytestmark = pytest.mark.lint


def _index(source: str, module: str = "repro.core.mod") -> ModuleSummary:
    return index_module(
        textwrap.dedent(source), relpath="src/x.py", module=module
    )


def test_qualpaths_cover_methods_and_nested_defs() -> None:
    summary = _index(
        """
        def top():
            def inner():
                pass
            return inner

        class Box:
            def get(self):
                pass
        """
    )
    assert set(summary.functions) == {
        MODULE_BODY,
        "top",
        "top.<locals>.inner",
        "Box.get",
    }
    fact = summary.functions["top.<locals>.inner"]
    assert fact.name == "inner"
    assert fact.class_name is None
    assert summary.functions["Box.get"].class_name == "Box"


def test_call_kinds_and_effects() -> None:
    summary = _index(
        """
        import time
        from repro.util.helpers import now

        def helper():
            pass

        async def run(self):
            helper()
            now()
            time.sleep(1)
        """
    )
    fact = summary.functions["run"]
    assert fact.is_async
    targets = {(site.kind, site.target) for site in fact.calls}
    assert ("abs", "repro.core.mod.helper") in targets
    assert ("abs", "repro.util.helpers.now") in targets
    assert [e.detail for e in fact.blocking] == ["time.sleep()"]


def test_self_calls_and_attr_types() -> None:
    summary = _index(
        """
        class Store:
            pass

        class Service:
            def __init__(self):
                self.store = Store()

            def admit(self, key):
                return self.store.load(key)
        """
    )
    service = summary.classes["Service"]
    # Attribute types are module-qualified so phase 2 can chase them
    # across files without re-resolving imports.
    assert service.attr_types["store"] == "repro.core.mod.Store"
    (site,) = [
        s for s in summary.functions["Service.admit"].calls if s.kind == "self"
    ]
    assert site.target == "store.load"


def test_seeded_rng_never_becomes_a_fact() -> None:
    summary = _index(
        """
        import random

        def seeded(seed):
            return random.Random(seed)

        def wild():
            return random.Random()
        """
    )
    assert list(summary.functions["seeded"].nondet) == []
    assert [e.kind for e in summary.functions["wild"].nondet] == ["rng"]


def test_index_tree_matches_index_module() -> None:
    # The lint runner indexes the tree its per-file phase already parsed;
    # that must give the same summary as indexing the source text.
    source = "import time\n\ndef f():\n    return time.time()\n"
    tree = ast.parse(source, filename="src/x.py")
    assert index_tree(tree, "src/x.py", "repro.x") == index_module(
        source, relpath="src/x.py", module="repro.x"
    )

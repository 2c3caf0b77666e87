"""The fact model: what phase 1 records about each module.

One :class:`ModuleSummary` per source file, built by
:mod:`repro.lint.flow.indexer` as a pure function of ``(module name,
source text)`` — no filesystem state, no imports executed.  A summary
holds, per function (including methods, nested
functions, and the module body as the pseudo-function ``<module>``):

* the **call sites** executing in the function's own body (nested
  ``def`` bodies are excluded — they run when *called*, not when the
  enclosing function runs), each with a best-effort resolved target;
* the local **effect facts** the flow rules propagate: direct
  nondeterminism sources (wall clocks, entropy, unseeded RNGs, ``id()``,
  unordered ``set``/``dict.keys()`` iteration), direct blocking calls
  (``time.sleep``, ``open``, ``subprocess.*``, ...), seam-class
  constructions (``FetchEngine``/``VectorEngine``/``BranchUnit``/
  ``ReplayBranchUnit``), and mutated ``self.*`` attributes (the
  sim-state fingerprint used in SIM014 messages);

plus the module-level import alias map and, per class, the
syntactically inferable attribute types (``self.x = ClassName(...)``
assignments and annotated ``__init__`` parameters stored on ``self``)
that let phase 2 resolve ``self.store.load(...)`` to a concrete method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Effect kinds recorded for nondeterminism sources (SIM014 taint).
NONDET_KINDS = ("clock", "entropy", "rng", "id", "ordering")

#: Fully-qualified calls that block the calling thread (SIM015).  The
#: set mirrors SIM013's per-file blacklist, but matched against
#: alias-resolved names so ``from time import sleep`` is still caught.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "io.open",
        "os.system",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: Bare-name builtins that block (``open`` without an import).
BLOCKING_BUILTINS = frozenset({"open"})

#: Seam-guarded classes, by family (SIM016).
ENGINE_SEAM_CLASSES = frozenset({"FetchEngine", "VectorEngine"})
BRANCH_SEAM_CLASSES = frozenset({"BranchUnit", "ReplayBranchUnit"})
SEAM_CLASSES = ENGINE_SEAM_CLASSES | BRANCH_SEAM_CLASSES

#: Functions allowed to construct seam classes: the seams themselves.
SEAM_FACTORIES = frozenset(
    {"build_engine", "build_branch_unit", "make_paper_branch_unit"}
)

#: The pseudo-function holding module-level statements.
MODULE_BODY = "<module>"


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call in a function body, with a best-effort target name.

    ``kind`` says how to interpret ``target``:

    * ``"abs"``   — dotted name with import aliases already applied
      (``repro.core.engine.build_engine``, ``json.dumps``);
    * ``"self"``  — method/attribute path on the enclosing instance
      (``admit``, ``store.load``), resolved against the class in phase 2;
    * ``"local"`` — a nested function of the same enclosing function,
      ``target`` is its full in-module qualpath.
    """

    target: str
    kind: str
    line: int
    col: int
    #: The call is the direct argument of ``sorted(...)`` — the
    #: order-sanitizer recognised by SIM014.
    in_sorted: bool = False


@dataclass(frozen=True, slots=True)
class Effect:
    """One local effect fact: a source/blocking call or construction.

    ``kind`` is a :data:`NONDET_KINDS` member for nondeterminism
    effects, the dotted call name for blocking effects, and the class
    name for constructions; ``detail`` is the human fragment quoted in
    finding messages (``"time.time()"``, ``"iteration over set(...)"``).
    """

    kind: str
    detail: str
    line: int
    col: int


@dataclass(slots=True)
class FunctionFact:
    """Everything phase 2 needs to know about one function.

    ``qualpath`` is the in-module path: ``"build_engine"``,
    ``"SweepService.admit"``, ``"outer.<locals>.inner"``, or
    ``"<module>"`` for module-level statements.
    """

    qualpath: str
    line: int
    is_async: bool = False
    calls: tuple[CallSite, ...] = ()
    nondet: tuple[Effect, ...] = ()
    blocking: tuple[Effect, ...] = ()
    constructs: tuple[Effect, ...] = ()
    #: ``self.<attr>`` names assigned outside ``__init__`` — the
    #: syntactic fingerprint of simulator-state mutation.
    mutates: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """Last path component (the factory-allowlist key)."""
        return self.qualpath.rpartition(".")[2]

    @property
    def class_name(self) -> str | None:
        """Enclosing class for a plain method, else ``None``."""
        head, _, _ = self.qualpath.rpartition(".")
        if head and "." not in head and head != MODULE_BODY:
            return head
        return None


@dataclass(slots=True)
class ClassFact:
    """Per-class facts: method names and inferable attribute types."""

    name: str
    line: int
    #: Method names defined directly on the class body.
    methods: tuple[str, ...] = ()
    #: ``self.<attr>`` -> alias-resolved dotted class name, from
    #: ``self.x = ClassName(...)`` or an annotated parameter stored on
    #: ``self`` (``def __init__(self, store: ResultStore): self.store =
    #: store``).
    attr_types: dict[str, str] = field(default_factory=dict)
    #: Alias-resolved base-class names (single-level MRO hints).
    bases: tuple[str, ...] = ()


@dataclass(slots=True)
class ModuleSummary:
    """Phase-1 output for one source file."""

    relpath: str
    module: str
    #: qualpath -> fact, in source order.
    functions: dict[str, FunctionFact] = field(default_factory=dict)
    #: class name -> fact, in source order.
    classes: dict[str, ClassFact] = field(default_factory=dict)
    #: local name -> dotted import origin (``repro.lint.asthelpers``
    #: convention: ``from a import b`` maps ``b`` to ``a.b``).
    imports: dict[str, str] = field(default_factory=dict)


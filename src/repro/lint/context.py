"""Per-file and per-repo context handed to every lint rule.

A rule sees one :class:`FileContext` at a time: the parsed AST, the raw
source lines, the file's dotted module name (derived from the package
layout, so rules can scope themselves to ``repro.core`` and friends
without caring where the repo is checked out), and the inline
suppressions.  Repo-wide facts that individual rules need — the declared
event-class registry, the tests corpus used by the fast-path parity rule
— live on the shared :class:`RepoContext` and are computed lazily at
most once per run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.config import LintConfig

#: Inline suppression directives::
#:
#:     x = time.time()  # simlint: disable=SIM001
#:     # simlint: disable=SIM004,SIM006   (suppresses the next line)
#:     # simlint: disable-file=SIM002     (suppresses the whole file)
#:
#: Rule lists are comma-separated ids; ``all`` suppresses every rule.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\- ]+)"
)

#: Matches a line that is nothing but a comment (suppressions on such a
#: line apply to the following line).
_COMMENT_ONLY_RE = re.compile(r"^\s*#")


@dataclass(frozen=True, slots=True)
class Suppressions:
    """Parsed ``# simlint:`` directives for one file."""

    #: Rules disabled for the whole file ({"all"} disables everything).
    file_rules: frozenset[str]
    #: Line number -> rules disabled on that line.
    line_rules: dict[int, frozenset[str]]

    def suppresses(self, rule_id: str, line: int) -> bool:
        """Whether *rule_id* is suppressed at 1-based *line*."""
        for rules in (self.file_rules, self.line_rules.get(line, frozenset())):
            if "all" in rules or rule_id in rules:
                return True
        return False


def parse_suppressions(lines: list[str]) -> Suppressions:
    """Extract suppression directives from raw source *lines*.

    A directive on a code line applies to that line; a directive on a
    comment-only line applies to the line below it (so a suppression can
    sit above a long statement instead of trailing it).
    """
    file_rules: set[str] = set()
    line_rules: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        kind = match.group(1)
        rules = {
            part.strip()
            for part in match.group(2).split(",")
            if part.strip()
        }
        if kind == "disable-file":
            file_rules.update(rules)
        elif _COMMENT_ONLY_RE.match(text):
            line_rules.setdefault(lineno + 1, set()).update(rules)
        else:
            line_rules.setdefault(lineno, set()).update(rules)
    return Suppressions(
        file_rules=frozenset(file_rules),
        line_rules={line: frozenset(rules) for line, rules in line_rules.items()},
    )


def module_name_for(path: Path) -> str:
    """Dotted module name for *path*, derived from ``__init__.py`` walk.

    ``src/repro/core/engine.py`` maps to ``repro.core.engine`` no matter
    what the working directory is: we climb parents for as long as they
    are packages.  Files outside any package (tools, tests fixtures) get
    their bare stem, which matches no scoped-rule prefix.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts)


@dataclass
class RepoContext:
    """Facts shared across every file of one lint run."""

    root: Path
    config: LintConfig
    _event_classes: frozenset[str] | None = field(default=None, repr=False)
    _taxonomy_types: frozenset[str] | None = field(default=None, repr=False)
    _tests_corpus: str | None = field(default=None, repr=False)

    def _parse_class_names(self, relpath: str) -> frozenset[str]:
        """Top-level class names declared in one repo source file."""
        source_file = self.root / relpath
        if not source_file.is_file():
            return frozenset()
        try:
            tree = ast.parse(source_file.read_text(encoding="utf-8"))
        except SyntaxError:
            return frozenset()
        return frozenset(
            node.name
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        )

    @property
    def event_classes(self) -> frozenset[str]:
        """Event types declared in ``repro.obs.events`` (SIM009 registry).

        Empty when the module cannot be found (linting a foreign tree),
        in which case the event-registry rule stands down rather than
        flagging everything.
        """
        if self._event_classes is None:
            self._event_classes = self._parse_class_names(
                "src/repro/obs/events.py"
            )
        return self._event_classes

    @property
    def taxonomy_types(self) -> frozenset[str]:
        """Exception types declared in ``repro.errors`` (SIM004 taxonomy)."""
        if self._taxonomy_types is None:
            self._taxonomy_types = self._parse_class_names(
                "src/repro/errors.py"
            )
        return self._taxonomy_types

    @property
    def tests_corpus(self) -> str:
        """Concatenated text of every test file (SIM008 parity lookups)."""
        if self._tests_corpus is None:
            tests_root = self.root / self.config.tests_path
            chunks = []
            if tests_root.is_dir():
                for test_file in sorted(tests_root.rglob("*.py")):
                    try:
                        chunks.append(test_file.read_text(encoding="utf-8"))
                    except OSError:
                        continue
            self._tests_corpus = "\n".join(chunks)
        return self._tests_corpus


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: Path
    #: Path as reported in findings (repo-relative when possible).
    relpath: str
    #: Dotted module name ("" when the file is not inside a package).
    module: str
    source: str
    lines: list[str]
    tree: ast.Module
    suppressions: Suppressions
    repo: RepoContext

    @classmethod
    def load(cls, path: Path, repo: RepoContext) -> FileContext:
        """Parse *path* into a context (raises SyntaxError on bad files)."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        try:
            relpath = str(path.resolve().relative_to(repo.root))
        except ValueError:
            relpath = str(path)
        return cls(
            path=path,
            relpath=relpath,
            module=module_name_for(path),
            source=source,
            lines=source.splitlines(),
            tree=tree,
            suppressions=parse_suppressions(source.splitlines()),
            repo=repo,
        )

    def in_modules(self, prefixes: tuple[str, ...]) -> bool:
        """Whether this module equals or lives under any of *prefixes*."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


def collect_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if any(part.startswith(".") for part in candidate.parts):
                    continue
                seen.add(candidate.resolve())
        elif path.suffix == ".py":
            seen.add(path.resolve())
    return sorted(seen)

"""Content-addressed store of finished sweep-cell results.

A sweep cell's result is a pure function of its identity — benchmark,
full :class:`~repro.config.SimConfig`, trace length, warmup, seed, the
trace-generator version, and the engine's semantics version — so
finished results are keyed by the sha256 digest of exactly those inputs.
One store serves both users of that map: ``--checkpoint DIR`` /
``checkpoint_dir=`` on the local runners (crash-resumable sweeps) and
the sweep service's ``--data-dir`` (any client, across restarts).

The on-disk contract mirrors :class:`~repro.core.artifacts.ArtifactCache`:

* **Versioned layout** — entries live under
  ``<dir>/v<RESULT_STORE_VERSION>/<digest[:2]>/<digest>.pkl``; bumping
  the version orphans old trees instead of misreading them.
* **Atomic writes** — temp file + ``os.replace``; concurrent writers of
  the same digest are last-write-wins, never torn (any winner is the
  right answer, the result being content-addressed).
* **Corruption = miss** — a truncated, garbled, or identity-mismatched
  entry is re-simulated and atomically overwritten, never trusted and
  never fatal.
* **Graceful store failure** — an unwritable store (full disk,
  read-only directory) warns, counts, and disables itself; the sweep
  continues uncached.
* **Pruning** — :meth:`ResultStore.prune` reclaims orphaned version
  trees and malformed entries, like ``ArtifactCache.prune``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import re
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

from repro.config import SimConfig
from repro.core.artifacts import PruneStats
from repro.core.results import SimulationResult
from repro.errors import CheckpointError
from repro.trace.generator import GENERATOR_VERSION

#: On-disk layout version.  Bump when the entry format changes; old
#: trees are simply never read again.
RESULT_STORE_VERSION = 1

#: Engine semantics version: the sha256 of the golden metric snapshots
#: (``tests/goldens/metrics_*.json``, concatenated in name order).  An
#: engine change that alters results changes the goldens, so it changes
#: every cell digest too; ``tools/regen_metrics_goldens.py`` prints the
#: new value and ``tests/core/test_golden_metrics.py`` fails until it is
#: copied here.
ENGINE_SEMANTICS = (
    "1d6280abf7d2be5f4747ca963dbb8cceb3a064d7b55ef42b08cf9af183758e2d"
)

#: Entry-file shape: full sha256 hex digest + ``.pkl``.
_ENTRY_RE = re.compile(r"^[0-9a-f]{64}\.pkl$")
#: Shard-directory shape: first two digest characters.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")


def cell_key(
    benchmark: str,
    config: SimConfig,
    trace_length: int,
    warmup: int,
    seed: int,
) -> tuple:
    """Every input :func:`cell_digest` hashes, as an in-memory dict key."""
    return (
        benchmark, config, trace_length, warmup, seed,
        GENERATOR_VERSION, ENGINE_SEMANTICS,
    )


def cell_digest(
    benchmark: str,
    config: SimConfig,
    trace_length: int,
    warmup: int,
    seed: int,
) -> str:
    """The content address of one sweep cell (full sha256 hex).

    Every input that affects the result is folded in: the cell identity,
    every ``SimConfig`` field (enums by value, so the digest survives
    re-imports), the trace-generator version (a generator change changes
    every trace, hence every result), and :data:`ENGINE_SEMANTICS`.
    """
    items = [
        f"store=v{RESULT_STORE_VERSION}",
        f"generator=v{GENERATOR_VERSION}",
        f"semantics={ENGINE_SEMANTICS}",
        f"benchmark={benchmark}",
        f"trace_length={trace_length}",
        f"warmup={warmup}",
        f"seed={seed}",
    ]
    for name, value in sorted(asdict(config).items()):
        value = getattr(value, "value", value)
        items.append(f"{name}={value!r}")
    return hashlib.sha256(";".join(items).encode("utf-8")).hexdigest()


class ResultStore:
    """Content-addressed ``digest -> SimulationResult`` store.

    Safe to share between concurrent processes and across sessions; a
    disabled store (``ResultStore(None)``) is a no-op passthrough so its
    users never branch on configuration.
    """

    def __init__(self, directory: str | os.PathLike[str] | None) -> None:
        self.root: Path | None = None if directory is None else Path(directory)
        #: Lookup / write traffic counters.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Stores that failed with an OS-level error; the first failure
        #: disables the store for the rest of the run.
        self.store_failures = 0
        self._disabled = False

    @property
    def enabled(self) -> bool:
        """True when a directory was configured and the store is healthy."""
        return self.root is not None and not self._disabled

    # -- keying --------------------------------------------------------------

    def entry_path(self, digest: str) -> Path:
        """File that holds (or will hold) the result for *digest*."""
        if self.root is None:
            raise CheckpointError("result store is disabled (no directory)")
        if not re.fullmatch(r"[0-9a-f]{64}", digest):
            raise CheckpointError(f"malformed cell digest {digest!r}")
        return (
            self.root / f"v{RESULT_STORE_VERSION}" / digest[:2]
            / f"{digest}.pkl"
        )

    # -- lookup --------------------------------------------------------------

    def load(
        self,
        digest: str,
        benchmark: str,
        config: SimConfig,
        trace_length: int,
        warmup: int,
        seed: int,
    ) -> SimulationResult | None:
        """The stored result for one cell, or ``None`` on any miss.

        Entries that fail to unpickle, carry the wrong version, or whose
        recorded identity does not match the request (a digest collision
        or a tampered file) are misses: correctness never depends on
        store contents.
        """
        if self.root is None or self._disabled:
            return None
        path = self.entry_path(digest)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            self.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("version") != (
            RESULT_STORE_VERSION
        ):
            self.misses += 1
            return None
        result = payload.get("result")
        if not isinstance(result, SimulationResult):
            self.misses += 1
            return None
        try:
            identity_ok = (
                result.program == benchmark
                and payload.get("benchmark") == benchmark
                and payload.get("config") == config
                and payload.get("trace_length") == trace_length
                and payload.get("warmup") == warmup
                and payload.get("seed") == seed
            )
        except AttributeError:
            # A pickled SimConfig from an older revision may lack newly
            # added slots; its __eq__ then raises instead of comparing.
            # Such an entry can never match the running config: miss.
            identity_ok = False
        if not identity_ok:
            self.misses += 1
            return None
        self.hits += 1
        return result

    # -- store ---------------------------------------------------------------

    def store(
        self,
        digest: str,
        benchmark: str,
        config: SimConfig,
        trace_length: int,
        warmup: int,
        seed: int,
        result: SimulationResult,
    ) -> None:
        """Persist one finished cell under its digest (atomic).

        Last-write-wins under concurrency: the payload lands in a private
        temp file and is published by a single ``os.replace``, so a
        concurrent reader sees either the old entry or the new one in
        full.  OS-level failures degrade gracefully — warn, count,
        disable — because a sweep must never die for its cache.
        """
        if self.root is None or self._disabled:
            return
        path = self.entry_path(digest)
        payload = pickle.dumps(
            {
                "version": RESULT_STORE_VERSION,
                "benchmark": benchmark,
                "config": config,
                "trace_length": trace_length,
                "warmup": warmup,
                "seed": seed,
                "result": result,
            },
            protocol=4,
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            self.store_failures += 1
            self._disabled = True
            warnings.warn(
                f"result store disabled after write failure: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        self.stores += 1

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> int:
        """Number of well-formed entries in the current version tree."""
        if self.root is None:
            return 0
        base = self.root / f"v{RESULT_STORE_VERSION}"
        if not base.is_dir():
            return 0
        return sum(
            1 for path in sorted(base.glob("*/*.pkl"))
            if _ENTRY_RE.match(path.name)
        )

    def prune(self) -> PruneStats:
        """Reclaim entries no current reader can hit.

        Removes version trees other than ``v<RESULT_STORE_VERSION>``,
        malformed shard directories, and malformed or leftover-temp
        files inside valid shards.  Well-formed current entries are kept
        — they are content-addressed, so they stay valid until the
        version is bumped.
        """
        stats = PruneStats()
        if self.root is None or not self.root.is_dir():
            return stats
        current = f"v{RESULT_STORE_VERSION}"
        for child in sorted(self.root.iterdir()):
            if child.name != current:
                _prune_tree(child, stats)
                continue
            for shard in sorted(child.iterdir()):
                if not shard.is_dir() or not _SHARD_RE.match(shard.name):
                    _prune_tree(shard, stats)
                    continue
                for entry in sorted(shard.iterdir()):
                    if not _ENTRY_RE.match(entry.name):
                        _prune_tree(entry, stats)
        return stats


def _prune_tree(path: Path, stats: PruneStats) -> None:
    """Delete *path* (file or tree), accounting every reclaimed file."""
    if path.is_file() or path.is_symlink():
        try:
            stats.bytes_freed += path.stat().st_size
            path.unlink()
            stats.entries += 1
        except OSError:
            return
        return
    if not path.is_dir():
        return
    for child in sorted(path.iterdir()):
        _prune_tree(child, stats)
    try:
        path.rmdir()
    except OSError:
        return

"""Content-addressed store of finished sweep-cell results.

A sweep cell's result is a pure function of its identity — benchmark,
full :class:`~repro.config.SimConfig`, trace length, warmup, seed, the
trace-generator version, and the engine's semantics version — so
finished results are keyed by the sha256 digest of exactly those inputs.
One store serves both users of that map: ``--checkpoint DIR`` /
``checkpoint_dir=`` on the local runners (crash-resumable sweeps) and
the sweep service's ``--data-dir`` (any client, across restarts).

Writes, failures and pruning follow the shared on-disk contract
(:mod:`repro.core.durable`).  Entries live under
``<dir>/v<RESULT_STORE_VERSION>/<digest[:2]>/<digest>.pkl``; a damaged
or identity-mismatched entry is a miss, re-simulated and overwritten.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
from dataclasses import asdict
from pathlib import Path

from repro.config import SimConfig
from repro.core.durable import DurableStore, PruneStats, atomic_write, remove_tree
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


class ResultStore(DurableStore):
    """Content-addressed ``digest -> SimulationResult`` store, safe to
    share between concurrent processes and across runs."""

    kind = "result store"

    def __init__(self, directory: str | os.PathLike[str] | None) -> None:
        super().__init__(directory)
        #: Lookup / write traffic counters.
        self.hits = 0
        self.misses = 0
        self.stores = 0

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
        if not self.enabled:
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

        OS-level failures degrade: a sweep must never die for its cache.
        """
        if not self.enabled:
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
            atomic_write(path, payload)
        except OSError as exc:
            self.degrade(exc, f"storing cell {digest[:12]}")
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
        # Every reclaimed file counts as one entry.
        for child in sorted(self.root.iterdir()):
            if child.name != current:
                stats.entries += remove_tree(child, stats)
                continue
            for shard in sorted(child.iterdir()):
                if not shard.is_dir() or not _SHARD_RE.match(shard.name):
                    stats.entries += remove_tree(shard, stats)
                    continue
                for entry in sorted(shard.iterdir()):
                    if not _ENTRY_RE.match(entry.name):
                        stats.entries += remove_tree(entry, stats)
        return stats


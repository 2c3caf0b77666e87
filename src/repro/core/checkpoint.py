"""Checkpoint/resume journal for long sweeps.

A full-suite sweep (Table 5 scale and beyond) can run for hours; a
killed process used to discard every completed cell.  The
:class:`CheckpointJournal` fixes that: each completed
``(benchmark, config)`` cell is journalled to disk the moment it
finishes, and a restarted sweep satisfies journalled cells without
re-simulating — producing output bit-identical to an uninterrupted run
(results are pickled verbatim and validated on load).

Design mirrors :class:`~repro.core.artifacts.ArtifactCache`:

* **Versioned layout** — everything lives under
  ``<dir>/v<CHECKPOINT_FORMAT_VERSION>/``; bumping the version orphans
  old journals instead of misreading them.
* **Invalidation by construction** — every input that affects a result
  (benchmark, trace length, warmup, seed, ``GENERATOR_VERSION``, the
  full ``SimConfig``) is part of the entry path, so a changed parameter
  or a bumped trace generator simply misses.
* **Atomic writes** — temp file + ``os.replace``; a sweep killed
  mid-write leaves no torn entry.
* **Corruption = miss** — an unreadable or mismatched entry is
  re-simulated, never trusted and never fatal.

A disabled journal (``CheckpointJournal(None)``) is a no-op passthrough,
so the runners never branch on configuration.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.config import SimConfig
from repro.core.results import SimulationResult
from repro.errors import CheckpointError
from repro.trace.generator import GENERATOR_VERSION

#: On-disk layout version.  Bump when the entry format or key scheme
#: changes; old journals are simply never read again.
CHECKPOINT_FORMAT_VERSION = 1


def config_key(config: SimConfig) -> str:
    """A short stable digest of every field of *config*.

    Enum fields hash by their ``value`` so the key survives re-imports;
    two configs collide only if every field is equal.
    """
    items = []
    for name, value in sorted(asdict(config).items()):
        value = getattr(value, "value", value)
        items.append(f"{name}={value!r}")
    digest = hashlib.sha256(";".join(items).encode("utf-8")).hexdigest()
    return digest[:16]


class CheckpointJournal:
    """Append-only journal of completed sweep cells.

    Safe to share between concurrent processes and across sessions.
    Concurrent writers of the *same* cell are **last-write-wins by
    construction**: every :meth:`store` writes a complete payload to a
    private temp file and publishes it with a single atomic
    ``os.replace``, so readers always see exactly one writer's entry in
    full — never a torn interleaving of two.  Since a cell's result is a
    pure function of its key, any winner is the right answer; the only
    cost of the race is the duplicated simulation.  Writers that want to
    avoid even that (e.g. two sweep-service workers completing the same
    digest) can elect a single owner up front with :meth:`claim`.
    """

    def __init__(self, directory: str | os.PathLike[str] | None) -> None:
        self.root: Path | None = None if directory is None else Path(directory)

    @property
    def enabled(self) -> bool:
        """True when a journal directory was configured."""
        return self.root is not None

    # -- keying --------------------------------------------------------------

    def entry_path(
        self,
        benchmark: str,
        config: SimConfig,
        trace_length: int,
        warmup: int,
        seed: int,
    ) -> Path:
        """File that holds (or will hold) one cell's result."""
        if self.root is None:
            raise CheckpointError("checkpoint journal is disabled (no directory)")
        if not benchmark or "/" in benchmark or benchmark.startswith("."):
            raise CheckpointError(f"unsafe benchmark name {benchmark!r}")
        key = (
            f"t{trace_length}-w{warmup}-s{seed}-g{GENERATOR_VERSION}"
            f"-c{config_key(config)}"
        )
        return (
            self.root
            / f"v{CHECKPOINT_FORMAT_VERSION}"
            / benchmark
            / f"{key}.pkl"
        )

    # -- concurrency ---------------------------------------------------------

    def claim(
        self,
        benchmark: str,
        config: SimConfig,
        trace_length: int,
        warmup: int,
        seed: int,
    ) -> bool:
        """Atomically claim one cell for this writer (``O_EXCL`` style).

        The first caller per cell gets ``True`` and should simulate and
        :meth:`store`; later callers get ``False`` and should wait for
        (or poll) the winner's entry instead of duplicating the work.
        Claims are advisory — :meth:`store` never requires one — and
        they fail *open*: with the journal disabled, or when the claim
        marker cannot be created for OS-level reasons, the caller is
        told to proceed (the worst outcome is the same duplicated
        simulation the journal always tolerated).
        """
        if self.root is None:
            return True
        path = self.entry_path(benchmark, config, trace_length, warmup, seed)
        marker = path.with_suffix(".claim")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return True
        os.close(fd)
        return True

    # -- lookup --------------------------------------------------------------

    def load(
        self,
        benchmark: str,
        config: SimConfig,
        trace_length: int,
        warmup: int,
        seed: int,
    ) -> SimulationResult | None:
        """The journalled result for one cell, or ``None`` on any miss.

        Entries that fail to unpickle, or whose recorded identity does
        not match the request, are treated as misses: correctness never
        depends on journal contents.
        """
        if self.root is None:
            return None
        path = self.entry_path(benchmark, config, trace_length, warmup, seed)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            return None
        if not isinstance(payload, dict) or payload.get("version") != (
            CHECKPOINT_FORMAT_VERSION
        ):
            return None
        result = payload.get("result")
        if not isinstance(result, SimulationResult):
            return None
        try:
            if result.program != benchmark or payload.get("config") != config:
                return None
        except AttributeError:
            # A pickled SimConfig from an older revision may lack newly
            # added slots; its __eq__ then raises instead of comparing.
            # Such an entry can never match the running config: miss.
            return None
        return result

    # -- store ---------------------------------------------------------------

    def store(
        self,
        benchmark: str,
        config: SimConfig,
        trace_length: int,
        warmup: int,
        seed: int,
        result: SimulationResult,
    ) -> None:
        """Journal one completed cell (atomic; failures are non-fatal).

        A journal that cannot be written (full disk, read-only dir) must
        not abort the sweep it exists to protect — the cell is simply not
        resumable.
        """
        if self.root is None:
            return
        path = self.entry_path(benchmark, config, trace_length, warmup, seed)
        payload = pickle.dumps(
            {
                "version": CHECKPOINT_FORMAT_VERSION,
                "config": config,
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
        except OSError:
            return

    # -- introspection -------------------------------------------------------

    def completed(self) -> int:
        """Number of journalled cells (across all benchmarks)."""
        if self.root is None:
            return 0
        base = self.root / f"v{CHECKPOINT_FORMAT_VERSION}"
        if not base.is_dir():
            return 0
        return sum(1 for _ in sorted(base.glob("*/*.pkl")))

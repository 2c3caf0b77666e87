"""Persistent on-disk cache of built programs and generated traces.

Sweeps re-build the same synthetic programs and re-generate the same
traces in every process that runs them — serial runners, every parallel
worker, every benchmark invocation.  Both artifacts are pure functions of
their inputs (``build_workload`` is deterministic; a trace is determined
by ``(program, n_instructions, seed)`` and the generation algorithm), so
they can be cached on disk across processes *and* process generations.

Layout (one directory per keyed artifact pair)::

    <cache_dir>/v<CACHE_FORMAT_VERSION>/<workload>/<key>/
        program.pkl   # pickled Program
        trace.npz     # trace/io.py npz format

where ``<key>`` is ``t<trace_length>-s<seed>-g<GENERATOR_VERSION>``.
Invalidation is by construction: any input that could change the bytes is
part of the path, so a bumped ``GENERATOR_VERSION`` or a different
``(trace_length, seed)`` simply misses and regenerates.  Nothing is ever
reused across a format bump.

Writes, failures and pruning follow the shared on-disk contract
(:mod:`repro.core.durable`), so concurrent workers can share one cache
directory.  Corrupt entries are misses, regenerated and overwritten.
"""

from __future__ import annotations

import pickle
import re
from pathlib import Path

from repro.branch.stream import STREAM_FORMAT_VERSION, PredictionStream
from repro.core.durable import DurableStore, PruneStats, atomic_write, remove_tree
from repro.errors import ExperimentError, TraceError
from repro.program.program import Program
from repro.trace.event import Trace
from repro.trace.generator import GENERATOR_VERSION, generate_trace
from repro.trace.io import load_trace, save_trace

#: On-disk layout version.  Bump when the file formats or the key scheme
#: change; old trees are simply never read again.
CACHE_FORMAT_VERSION = 1

_PROGRAM_FILE = "program.pkl"
_TRACE_FILE = "trace.npz"

#: Entry-key shape: t<trace_length>-s<seed>-g<GENERATOR_VERSION>.
_ENTRY_KEY_RE = re.compile(r"^t\d+-s-?\d+-g(\d+)$")
#: Stream-subdirectory shape: stream-f<STREAM_FORMAT_VERSION>-<digest>.
_STREAM_DIR_RE = re.compile(r"^stream-f(\d+)-[0-9a-f]+$")


class ArtifactCache(DurableStore):
    """Filesystem cache of ``(workload, trace_length, seed)`` artifacts,
    safe to share between concurrent processes and across runs."""

    kind = "artifact cache"

    # -- keying -------------------------------------------------------------

    def entry_dir(self, workload: str, trace_length: int, seed: int) -> Path:
        """Directory holding the artifacts for one key (may not exist)."""
        if self.root is None:
            raise ExperimentError("artifact cache is disabled (no cache_dir)")
        if not workload or "/" in workload or workload.startswith("."):
            raise ExperimentError(f"unsafe workload name {workload!r}")
        key = f"t{trace_length}-s{seed}-g{GENERATOR_VERSION}"
        return self.root / f"v{CACHE_FORMAT_VERSION}" / workload / key

    # -- lookup -------------------------------------------------------------

    def load(
        self, workload: str, trace_length: int, seed: int
    ) -> tuple[Program, Trace] | None:
        """The cached (program, trace) pair, or ``None`` on any miss.

        A corrupt or partially-deleted entry is a miss: simulation
        correctness never depends on cache contents, so the only sane
        response to damage is to regenerate.
        """
        if not self.enabled:
            return None
        entry = self.entry_dir(workload, trace_length, seed)
        try:
            with open(entry / _PROGRAM_FILE, "rb") as fh:
                program = pickle.load(fh)
            trace = load_trace(entry / _TRACE_FILE)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, TraceError):
            # AttributeError/ImportError: pickles from an older code
            # revision whose classes moved; treat as stale, not fatal.
            return None
        if not isinstance(program, Program) or program.name != workload:
            return None
        if trace.program_name != workload or trace.seed != seed:
            return None
        if trace.n_instructions < trace_length:
            return None
        return program, trace

    # -- store --------------------------------------------------------------

    def store(
        self, workload: str, trace_length: int, seed: int,
        program: Program, trace: Trace,
    ) -> None:
        """Persist *program* and *trace* under their key (atomic).

        OS-level write failures (disk full, read-only directory) degrade:
        warn, count, disable; the sweep continues uncached.
        """
        if not self.enabled:
            return
        try:
            entry = self.entry_dir(workload, trace_length, seed)
            entry.mkdir(parents=True, exist_ok=True)
            atomic_write(entry / _PROGRAM_FILE, pickle.dumps(program, protocol=4))
            # The suffix must end in ".npz" or np.savez would append one
            # and write to a different path than the one we rename.
            atomic_write(
                entry / _TRACE_FILE,
                lambda tmp: save_trace(trace, tmp),
                suffix=".tmp.npz",
            )
        except OSError as exc:
            self.degrade(exc, f"storing {workload!r}")

    # -- the one-call convenience used by the runners -----------------------

    def get_or_build(
        self, workload: str, trace_length: int, seed: int
    ) -> tuple[Program, Trace]:
        """Cached (program, trace), building + storing on a miss.

        *seed* seeds both the workload build and the trace generation,
        matching :class:`~repro.core.runner.SimulationRunner`'s use.
        """
        cached = self.load(workload, trace_length, seed)
        if cached is not None:
            return cached
        from repro.program.workloads import build_workload

        program = build_workload(workload, seed=seed)
        trace = generate_trace(program, n_instructions=trace_length, seed=seed)
        self.store(workload, trace_length, seed, program, trace)
        return program, trace

    # -- prediction streams ---------------------------------------------------

    def stream_dir(
        self, workload: str, trace_length: int, seed: int, digest: str
    ) -> Path:
        """Directory holding one recorded prediction stream (may not exist).

        Lives inside the (workload, trace_length, seed) entry so trace
        invalidation sweeps its streams along; the stream format version
        and branch-config digest complete the key.
        """
        return self.entry_dir(workload, trace_length, seed) / (
            f"stream-f{STREAM_FORMAT_VERSION}-{digest}"
        )

    def load_stream(
        self,
        workload: str,
        trace_length: int,
        seed: int,
        digest: str,
    ) -> PredictionStream | None:
        """The cached prediction stream, or ``None`` on any miss.

        Corruption (truncated arrays, bad metadata, mismatched identity)
        is a miss — the stream is rebuilt, never trusted.
        """
        if not self.enabled:
            return None
        directory = self.stream_dir(workload, trace_length, seed, digest)
        try:
            stream = PredictionStream.load(directory)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if (
            stream.program_name != workload
            or stream.trace_seed != seed
            or stream.digest != digest
            or stream.trace_instructions < trace_length
        ):
            return None
        return stream

    def store_stream(
        self,
        workload: str,
        trace_length: int,
        seed: int,
        stream: PredictionStream,
    ) -> None:
        """Persist *stream* under its key (atomic; failures degrade)."""
        if not self.enabled:
            return
        try:
            directory = self.stream_dir(workload, trace_length, seed, stream.digest)
            stream.save(directory)
        except OSError as exc:
            self.degrade(exc, f"storing stream for {workload!r}")

    # -- maintenance ----------------------------------------------------------

    def prune(self) -> PruneStats:
        """Delete entries no current reader can ever hit.

        Reclaims three kinds of garbage that otherwise grow without
        bound across code revisions:

        * version trees other than ``v<CACHE_FORMAT_VERSION>``;
        * entry directories keyed by a different ``GENERATOR_VERSION``
          (plus unrecognised entry names — debris from older layouts);
        * stream subdirectories with a different ``STREAM_FORMAT_VERSION``.

        Current-format entries are untouched.  Each removed tree counts
        as one entry.  Pruning is best-effort housekeeping, never
        correctness.
        """
        stats = PruneStats()
        if self.root is None or not self.root.is_dir():
            return stats
        current = f"v{CACHE_FORMAT_VERSION}"
        stale: list[Path] = []
        for version_dir in sorted(self.root.iterdir()):
            if not version_dir.is_dir() or not version_dir.name.startswith("v"):
                continue
            if version_dir.name != current:
                stale.append(version_dir)
                continue
            for workload_dir in sorted(version_dir.iterdir()):
                if not workload_dir.is_dir():
                    continue
                for entry in sorted(workload_dir.iterdir()):
                    if not entry.is_dir():
                        continue
                    match = _ENTRY_KEY_RE.match(entry.name)
                    if match is None or int(match.group(1)) != GENERATOR_VERSION:
                        stale.append(entry)
                        continue
                    for sub in sorted(entry.iterdir()):
                        if not sub.is_dir():
                            continue
                        stream_match = _STREAM_DIR_RE.match(sub.name)
                        if stream_match is not None and (
                            int(stream_match.group(1)) != STREAM_FORMAT_VERSION
                        ):
                            stale.append(sub)
        for tree in stale:
            remove_tree(tree, stats)
            stats.entries += 1
        return stats


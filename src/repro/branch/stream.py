"""Prediction-stream precompute and replay.

Every table/figure sweep in the paper runs the *same* architectural trace
across many fetch-policy × I-cache cells.  Under the ``"architectural"``
branch schedule (:class:`~repro.config.SimConfig.branch_schedule`) the
branch predictor trains on a cache-independent clock — the perfect-cache
fetch clock — so the per-branch outcome sequence (predicted direction and
target, BTB hit class, penalty slots, wrong-path walk) is **identical for
every policy and cache geometry**.  This module exploits that:

* :func:`build_stream` records the outcome sequence once per (workload,
  branch-config digest, seed, trace length) as compact NumPy arrays
  (:class:`PredictionStream`): it runs the event loop itself on the
  perfect-cache clock, behind a live
  :class:`~repro.branch.unit.BranchUnit` that logs each prediction, so
  the simulator has one architectural clock, not a copy for recording;
* :class:`ReplayBranchUnit` is a drop-in facade the engine consumes
  through the :func:`~repro.core.engine.build_branch_unit` seam, replaying
  the recorded stream with **bit-identical** results (differential-tested
  in ``tests/core/test_stream_replay.py``);
* streams persist under :class:`~repro.core.artifacts.ArtifactCache` as a
  directory of ``.npy`` files, so parallel workers load them zero-copy via
  ``np.load(..., mmap_mode="r")`` instead of receiving pickled arrays.

Wrong-path walks are recorded as line-size-independent ``(pc, n)``
straight-line segments (the walk depends only on the code image and
predictor state) and split once per (stream, line size) into
:class:`RecordedWalks` (:func:`~repro.core.wrongpath.iter_lines_from_runs`,
the live walker's splitter), which both engines read.

Replay is *bypassed* for timing-schedule runs with a real cache (the
historical default), where cache stalls reorder resolutions against
predictions and the stream is not shareable; see
:func:`replay_eligible`.  A real-cache architectural cell always
replays: given no stream, its engine records one
(:func:`~repro.core.engine.build_engine`).  A perfect-cache cell runs
live on the same clock unless its stream is shared: a planned run
replays only streams two planned cells use
(:meth:`~repro.core.runner.SimulationRunner.run_many`); see
docs/performance.md.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.branch.unit import (
    BranchStats,
    BranchUnit,
    FetchOutcome,
    PenaltyCause,
    PredictionResult,
    correct_result,
)
from repro.config import SimConfig
from repro.core.durable import publish_dir
from repro.errors import SimulationError
from repro.isa import InstrKind
from repro.program.program import Program
from repro.trace.event import Trace

#: On-disk / in-memory stream layout version.  Bump when the array schema
#: or the recording semantics change; old stream entries become misses
#: (and are reclaimed by ``ArtifactCache.prune()``).
STREAM_FORMAT_VERSION = 1

#: Outcome/cause enums by compact array code (and back).
_OUTCOMES = (FetchOutcome.CORRECT, FetchOutcome.MISFETCH, FetchOutcome.MISPREDICT)
_CAUSES = (
    PenaltyCause.NONE,
    PenaltyCause.BTB_MISFETCH,
    PenaltyCause.PHT_MISPREDICT,
    PenaltyCause.BTB_MISPREDICT,
)
#: Cause names by code: the ``penalty_slots_by_cause`` keys, read
#: without an enum ``.value`` property call per redirect.
_CAUSE_NAMES = tuple(cause.value for cause in _CAUSES)
_CORRECT = FetchOutcome.CORRECT

#: Array fields of a stream, in on-disk order: (name, dtype).
_FIELDS = (
    ("outcome", np.int8),
    ("cause", np.int8),
    ("penalty", np.int32),
    ("delay", np.int32),
    ("wslots", np.int32),
    ("wstart", np.int64),
    ("pht_index", np.int32),
    ("pred_taken", np.int8),
    ("wp_off", np.int64),
    ("wp_pc", np.int64),
    ("wp_n", np.int32),
)

_META_NAME = "meta.json"

#: One recorded :class:`PredictionResult`, field for field, as the
#: stream arrays its fields become.
_RESULT_DTYPE = np.dtype([
    (name, dict(_FIELDS)[name])
    for name in ("outcome", "cause", "penalty", "wstart", "delay", "wslots",
                 "pht_index", "pred_taken")
])


def replay_eligible(config: SimConfig) -> bool:
    """True when *config*'s results are provably stream-replayable.

    The recorded stream assumes predictor updates on the architectural
    (perfect-cache) clock.  That holds by construction for
    ``branch_schedule == "architectural"``, and trivially for perfect-cache
    cells (where the timing clock *is* the architectural clock).  Default
    timing-schedule runs with a real cache are not eligible — their
    resolution interleave depends on cache stalls — and simply bypass
    replay.
    """
    return config.branch_schedule == "architectural" or config.perfect_cache


def stream_digest(config: SimConfig) -> str:
    """Short stable digest of every knob that shapes the outcome stream.

    The architectural-clock schedule depends only on the branch
    architecture, the penalty/resolve latencies, and the speculation
    depth; cache and policy knobs are deliberately excluded — that
    exclusion is what lets one stream serve a whole sweep.
    """
    items = []
    for name, value in sorted(asdict(config.branch).items()):
        items.append(f"branch.{name}={value!r}")
    items.append(f"misfetch={config.misfetch_penalty_slots}")
    items.append(f"mispredict={config.mispredict_penalty_slots}")
    items.append(f"resolve={config.resolve_latency_slots}")
    items.append(f"depth={config.max_unresolved}")
    digest = hashlib.sha256(";".join(items).encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass(slots=True, weakref_slot=True)
class PredictionStream:
    """One workload's recorded branch-outcome sequence.

    ``n`` control-transfer records (one per non-PLAIN trace block, in
    trace order) plus ``wp_off``-indexed wrong-path segments:

    ==========  =====  ====================================================
    array       dtype  meaning
    ==========  =====  ====================================================
    outcome     int8   0 correct / 1 misfetch / 2 mispredict
    cause       int8   index into PenaltyCause (0 none .. 3 btb_mispredict)
    penalty     int32  penalty_slots
    delay       int32  wrong_path_delay
    wslots      int32  wrong_path_slots
    wstart      int64  wrong_path_start (-1 = none)
    pht_index   int32  prediction-time PHT index (-1 = none)
    pred_taken  int8   -1 none / 0 not-taken / 1 taken
    wp_off      int64  [n+1] prefix offsets into wp_pc/wp_n
    wp_pc       int64  wrong-path segment start addresses
    wp_n        int32  wrong-path segment instruction counts
    ==========  =====  ====================================================
    """

    program_name: str
    trace_seed: int | None
    trace_instructions: int
    trace_blocks: int
    digest: str
    outcome: np.ndarray
    cause: np.ndarray
    penalty: np.ndarray
    delay: np.ndarray
    wslots: np.ndarray
    wstart: np.ndarray
    pht_index: np.ndarray
    pred_taken: np.ndarray
    wp_off: np.ndarray
    wp_pc: np.ndarray
    wp_n: np.ndarray

    @property
    def n_records(self) -> int:
        """Number of recorded control transfers."""
        return len(self.outcome)

    def require_compatible(self, program_name: str, config: SimConfig) -> None:
        """Raise unless this stream can replay *program_name* under *config*."""
        if self.program_name != program_name:
            raise SimulationError(
                f"stream recorded for {self.program_name!r}, "
                f"engine built for {program_name!r}"
            )
        expected = stream_digest(config)
        if self.digest != expected:
            raise SimulationError(
                f"stream digest {self.digest} does not match branch config "
                f"digest {expected}"
            )

    def require_trace(self, trace: Trace) -> None:
        """Raise unless *trace* is the trace this stream was recorded from."""
        if (
            trace.program_name != self.program_name
            or trace.seed != self.trace_seed
            or trace.n_instructions != self.trace_instructions
            or trace.n_blocks != self.trace_blocks
        ):
            raise SimulationError(
                f"stream recorded from "
                f"{self.program_name}/s{self.trace_seed}/"
                f"i{self.trace_instructions} cannot replay trace "
                f"{trace.program_name}/s{trace.seed}/i{trace.n_instructions}"
            )

    # -- persistence (directory of .npy files + meta.json) -----------------

    def save(self, directory: str | os.PathLike[str]) -> None:
        """Write this stream to *directory*, atomically.

        Arrays go to individual ``.npy`` files (the only layout
        ``np.load(mmap_mode="r")`` can map zero-copy — npz members cannot
        be mmapped), published as one directory by
        :func:`~repro.core.durable.publish_dir`.  Raises ``OSError`` on
        failure; a concurrent writer that published first is not one.
        """

        def fill(tmp: Path) -> None:
            for name, dtype in _FIELDS:
                array = np.ascontiguousarray(getattr(self, name), dtype=dtype)
                np.save(tmp / f"{name}.npy", array)
            meta = {
                "format": STREAM_FORMAT_VERSION,
                "program": self.program_name,
                "seed": self.trace_seed,
                "instructions": self.trace_instructions,
                "blocks": self.trace_blocks,
                "digest": self.digest,
                "records": self.n_records,
            }
            with open(tmp / _META_NAME, "w", encoding="utf-8") as handle:
                json.dump(meta, handle)

        publish_dir(Path(directory), fill)

    @classmethod
    def load(
        cls, directory: str | os.PathLike[str], mmap: bool = False
    ) -> PredictionStream:
        """Read a stream from *directory* (written by :meth:`save`).

        With ``mmap=True`` arrays are memory-mapped read-only — the
        zero-copy transport parallel workers use.  Raises ``OSError`` /
        ``ValueError`` / ``KeyError`` on any corruption; callers treat
        those as cache misses.
        """
        directory = Path(directory)
        with open(directory / _META_NAME, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta["format"] != STREAM_FORMAT_VERSION:
            raise ValueError(
                f"stream format {meta['format']} != {STREAM_FORMAT_VERSION}"
            )
        mode = "r" if mmap else None
        arrays = {}
        for name, dtype in _FIELDS:
            array = np.load(directory / f"{name}.npy", mmap_mode=mode)
            if array.dtype != np.dtype(dtype) or array.ndim != 1:
                raise ValueError(f"stream array {name} has wrong shape/dtype")
            arrays[name] = array
        n = int(meta["records"])
        if len(arrays["outcome"]) != n or len(arrays["wp_off"]) != n + 1:
            raise ValueError("stream arrays inconsistent with metadata")
        for name, _ in _FIELDS[:8]:
            if len(arrays[name]) != n:
                raise ValueError(f"stream array {name} has wrong length")
        if len(arrays["wp_pc"]) != len(arrays["wp_n"]):
            raise ValueError("wrong-path segment arrays disagree")
        return cls(
            program_name=meta["program"],
            trace_seed=meta["seed"],
            trace_instructions=int(meta["instructions"]),
            trace_blocks=int(meta["blocks"]),
            digest=meta["digest"],
            **arrays,
        )


class _RecordingUnit(BranchUnit):
    """The live branch unit, logging every prediction it returns and, for
    each non-correct one, the wrong-path walk against the predictor
    state of that moment.  A redirected ``CALL`` is walked after
    :meth:`notify_call`, which the event loop calls right after
    predicting it."""

    def __init__(self, live: BranchUnit, image) -> None:
        # Deferred: repro.core imports this module.
        from repro.core.wrongpath import iter_wrong_path_runs

        self.__dict__.update(live.__dict__)  # the fresh unit's state
        self._image = image
        self._wrong_path_runs = iter_wrong_path_runs
        self.results: list[PredictionResult] = []
        #: Record index -> that record's wrong-path ``(pc, n)`` runs.
        self.walks: dict[int, list[tuple[int, int]]] = {}

    def predict(self, pc, kind, *args) -> PredictionResult:
        result = BranchUnit.predict(self, pc, kind, *args)
        # A conditional is logged by predict_conditional.
        if kind is not InstrKind.COND_BRANCH:
            self.results.append(result)
            if result.outcome is not _CORRECT and kind is not InstrKind.CALL:
                self._walk(result)
        return result

    def predict_conditional(self, *args) -> PredictionResult:
        result = BranchUnit.predict_conditional(self, *args)
        self.results.append(result)
        if result.outcome is not _CORRECT:
            self._walk(result)
        return result

    def notify_call(self, return_address: int) -> None:
        BranchUnit.notify_call(self, return_address)
        result = self.results[-1]
        if result.outcome is not _CORRECT:
            self._walk(result)

    def _walk(self, result: PredictionResult) -> None:
        """Log the wrong-path walk of the last (redirected) prediction."""
        start, slots = result.wrong_path_start, result.wrong_path_slots
        if start is not None and slots > 0:
            self.walks[len(self.results) - 1] = self._wrong_path_runs(
                self._image, self, start, slots
            )

    def arrays(self) -> dict[str, np.ndarray]:
        """The log as the stream's eleven arrays (the log is freed as
        it is converted, to keep the recording's peak down)."""
        # One pass over the log, each result a row of _RESULT_DTYPE
        # (tuple.index finds an enum member by identity, in C).
        rows = np.fromiter(
            (
                (_OUTCOMES.index(outcome), _CAUSES.index(cause), penalty,
                 -1 if start is None else start, delay, slots,
                 -1 if pht is None else pht, -1 if taken is None else taken)
                for outcome, cause, penalty, start, delay, slots, pht, taken
                in self.results
            ),
            _RESULT_DTYPE,
            len(self.results),
        )
        self.results = None
        arrays = {name: rows[name].copy() for name in _RESULT_DTYPE.names}
        runs_per_record = np.zeros(len(rows) + 1, dtype=np.int64)
        del rows
        for index, walk in self.walks.items():
            runs_per_record[index + 1] = len(walk)
        arrays["wp_off"] = np.cumsum(runs_per_record)
        runs = np.array(
            [run for walk in self.walks.values() for run in walk], np.int64
        ).reshape(-1, 2)
        self.walks = None
        arrays["wp_pc"] = runs[:, 0].copy()
        arrays["wp_n"] = runs[:, 1].astype(np.int32)
        return arrays


def build_stream(program: Program, trace: Trace, config: SimConfig) -> PredictionStream:
    """Run the live predictor once and record its outcome stream.

    The recording is one event-loop run of *trace* with a perfect cache
    on the timing schedule, whose fetch clock *is* the architectural
    clock, behind a :class:`_RecordingUnit`.  Replay-eligible cells
    train the predictor on that same clock, so replaying the stream
    reproduces them bit for bit.
    """
    # Deferred: repro.core imports this module (via artifacts/engine), so
    # importing repro.core at our module level would be circular.
    from repro.core.engine import build_branch_unit, build_engine

    recorder = _RecordingUnit(build_branch_unit(config), program.image)
    clock = replace(
        config, perfect_cache=True, branch_schedule="timing",
        engine_backend="event", policy_schedule="static", policy_script=(),
        adaptive_interval=None,
    )
    # The run raises SimulationError if *trace* is not *program*'s.  It
    # runs on a shallow copy: a runner keeps *trace* for life, and the
    # lowering memoized for the copy dies with it.
    build_engine(program, clock, unit=recorder).run(copy.copy(trace))
    return PredictionStream(
        program_name=program.name,
        trace_seed=trace.seed,
        trace_instructions=trace.n_instructions,
        trace_blocks=trace.n_blocks,
        digest=stream_digest(config),
        **recorder.arrays(),
    )


class _LoweredStream:
    """Plain-list forms of one stream's record arrays (read-only).

    List indexing is ~3x faster than ndarray scalar indexing in the
    per-branch hot loop, and the conversion pages mmapped arrays in
    exactly once.  Lowered lists are shared: every facade built from
    the same stream object — including :meth:`FetchEngine.fork` clones
    made for ``AdaptiveEngine`` shadow/oracle runs, which share the
    stream by identity — reuses one lowering via :func:`_lowered_lists`.
    """

    __slots__ = tuple(name for name, _ in _FIELDS)

    def __init__(self, stream: PredictionStream) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(stream, name).tolist())


# Keyed by id(stream) in the shared lowering memo (repro.core.lowering):
# an entry dies with its stream, so the id cannot be recycled while the
# entry lives.
_lowered_memo: dict[int, _LoweredStream] = {}


def stream_lowerings() -> int:
    """Stream lowerings actually performed — a test hook (see
    ``tests/core/test_lowering_sharing.py``), not a metric."""
    from repro.core.lowering import LOWERING_COUNTS

    return LOWERING_COUNTS["stream"]


def _lowered_lists(stream: PredictionStream) -> _LoweredStream:
    # Deferred import: repro.core imports this module.
    from repro.core.lowering import memo_get

    return memo_get(
        _lowered_memo, (stream,), id(stream), "stream",
        lambda: _LoweredStream(stream),
    )


class RecordedWalks:
    """Every recorded wrong-path walk of one stream, split at one line
    size.

    ``lines[ev_off[e]:ev_off[e + 1]]`` is stream event *e*'s walk as
    ``(line, n)`` chunks, split by
    :func:`~repro.core.wrongpath.iter_lines_from_runs` exactly as a live
    walk is.  Equal chunks share one interned tuple, so the list costs
    about one slot per walk probe.
    """

    __slots__ = ("line_size", "lines", "ev_off")

    def __init__(self, lowered: _LoweredStream, line_size: int) -> None:
        # Deferred import: repro.core imports this module.
        from repro.core.wrongpath import iter_lines_from_runs

        wp_off, wp_pc, wp_n = lowered.wp_off, lowered.wp_pc, lowered.wp_n
        interned: dict[tuple[int, int], tuple[int, int]] = {}
        lines: list[tuple[int, int]] = []
        ev_off = [0]
        for e in range(len(wp_off) - 1):
            lo = wp_off[e]
            hi = wp_off[e + 1]
            if lo < hi:
                for chunk in iter_lines_from_runs(
                    zip(wp_pc[lo:hi], wp_n[lo:hi]), line_size
                ):
                    lines.append(interned.setdefault(chunk, chunk))
            ev_off.append(len(lines))
        self.line_size = line_size
        self.lines = lines
        self.ev_off = ev_off


_walk_memo: dict[tuple, RecordedWalks] = {}


def recorded_walks(stream: PredictionStream, line_size: int) -> RecordedWalks:
    """The (memoized) wrong-path walks of *stream* split at *line_size*."""
    from repro.core.lowering import memo_get

    return memo_get(
        _walk_memo, (stream,), (id(stream), line_size), "walk",
        lambda: RecordedWalks(_lowered_lists(stream), line_size),
    )


class ReplayBranchUnit:
    """Drop-in :class:`BranchUnit` facade that replays a recorded stream.

    Consumed by the engine through the ``build_branch_unit`` seam: it
    reconstructs each :class:`PredictionResult` from the stream arrays,
    keeps :class:`BranchStats` exactly as the live unit would, and serves
    recorded wrong-path walks split at the engine's line size
    (:func:`recorded_walks`).
    ``resolve`` / ``notify_call`` are no-ops — the training they would do
    is already baked into the recorded outcomes.
    """

    __slots__ = (
        "stream",
        "stats",
        "misfetch_penalty_slots",
        "mispredict_penalty_slots",
        "_cursor",
        "_last",
        "_walks",
        # The per-record lists, ``_outcome`` .. ``_pred_taken``.
        *(f"_{name}" for name, _ in _FIELDS[:8]),
    )

    def __init__(self, stream: PredictionStream, config: SimConfig) -> None:
        stream.require_compatible(stream.program_name, config)
        self.stream = stream
        self.stats = BranchStats()
        self.misfetch_penalty_slots = config.misfetch_penalty_slots
        self.mispredict_penalty_slots = config.mispredict_penalty_slots
        self._cursor = 0
        self._last = -1
        lowered = _lowered_lists(stream)
        for name, _ in _FIELDS[:8]:
            setattr(self, f"_{name}", getattr(lowered, name))
        self._walks: RecordedWalks | None = None

    def __deepcopy__(self, memo: dict) -> ReplayBranchUnit:
        """Fork-friendly copy: the stream and its lowered lists are
        read-only, so an engine fork shares them and deep-copies only
        the mutable replay state (:class:`BranchStats`, cursor)."""
        clone = object.__new__(ReplayBranchUnit)
        memo[id(self)] = clone
        for name in ReplayBranchUnit.__slots__:
            setattr(clone, name, getattr(self, name))
        clone.stats = copy.deepcopy(self.stats, memo)
        return clone

    def rewind(self) -> None:
        """Reset the replay cursor to the start of the stream."""
        self._cursor = 0
        self._last = -1

    # -- the hot replay path ----------------------------------------------

    def predict(
        self,
        pc: int,
        kind: InstrKind,
        static_target: int | None,
        actual_taken: bool,
        actual_target: int,
        fall_through: int,
    ) -> PredictionResult:
        """Replay the recorded outcome for the next control transfer."""
        stats = self.stats
        if kind is InstrKind.COND_BRANCH:
            stats.conditional += 1
        else:
            stats.unconditional += 1
        stats.correct += 1
        return self.predict_conditional(
            pc, static_target, actual_taken, fall_through
        )

    def count_conditionals(self, n: int) -> None:
        """Count *n* conditional predictions ahead of replaying them, as
        correct (see :meth:`BranchUnit.count_conditionals`)."""
        stats = self.stats
        stats.conditional += n
        stats.correct += n

    def predict_conditional(
        self,
        pc: int,
        static_target: int | None,
        actual_taken: bool,
        fall_through: int,
    ) -> PredictionResult:
        """Replay the next recorded outcome, already counted as a correct
        prediction (by :meth:`predict` or :meth:`count_conditionals`);
        the outcome is recorded per transfer, so this serves every
        kind."""
        i = self._cursor
        if i >= len(self._outcome):
            raise SimulationError(
                f"prediction stream exhausted after {i} records "
                f"(trace/stream mismatch for {self.stream.program_name!r})"
            )
        self._cursor = i + 1
        raw_pht = self._pht_index[i]
        pht_index = None if raw_pht < 0 else raw_pht
        raw_pred = self._pred_taken[i]
        predicted_taken = None if raw_pred < 0 else raw_pred == 1
        outcome_code = self._outcome[i]
        if outcome_code == 0:
            return correct_result(pht_index, predicted_taken)
        self._last = i
        stats = self.stats
        stats.correct -= 1
        cause_code = self._cause[i]
        penalty = self._penalty[i]
        stats.penalty_slots_by_cause[_CAUSE_NAMES[cause_code]] += penalty
        if cause_code == 1:
            stats.btb_misfetches += 1
        elif cause_code == 2:
            stats.pht_mispredicts += 1
        elif cause_code == 3:
            stats.btb_mispredicts += 1
        raw_start = self._wstart[i]
        return PredictionResult(
            outcome=_OUTCOMES[outcome_code],
            cause=_CAUSES[cause_code],
            penalty_slots=penalty,
            wrong_path_start=None if raw_start < 0 else raw_start,
            wrong_path_delay=self._delay[i],
            wrong_path_slots=self._wslots[i],
            pht_index=pht_index,
            predicted_taken=predicted_taken,
        )

    def iter_last_wrong_path_lines(self, line_size: int):
        """Recorded wrong-path walk of the last non-correct prediction,
        split at *line_size* boundaries (``(line, n)`` chunks): a slice
        of the stream's shared :class:`RecordedWalks`."""
        walks = self._walks
        if walks is None or walks.line_size != line_size:
            walks = self._walks = recorded_walks(self.stream, line_size)
        i = self._last
        return walks.lines[walks.ev_off[i] : walks.ev_off[i + 1]]

    # -- trained-state no-ops ---------------------------------------------

    def resolve(
        self, pht_index: int | None, taken: bool, pc: int | None = None
    ) -> None:
        """No-op: resolution training is baked into the recorded stream."""

    def notify_call(self, return_address: int) -> None:
        """No-op: RAS effects are baked into the recorded stream."""

    # -- observability ------------------------------------------------------

    def publish_metrics(self, registry, prefix: str = "branch") -> None:
        """Publish dynamic branch statistics (same schema as the live unit)."""
        stats = self.stats
        registry.inc(f"{prefix}.conditional", stats.conditional)
        registry.inc(f"{prefix}.unconditional", stats.unconditional)
        registry.inc(f"{prefix}.correct", stats.correct)
        registry.inc(f"{prefix}.pht_mispredicts", stats.pht_mispredicts)
        registry.inc(f"{prefix}.btb_misfetches", stats.btb_misfetches)
        registry.inc(f"{prefix}.btb_mispredicts", stats.btb_mispredicts)
        for cause, slots in sorted(stats.penalty_slots_by_cause.items()):
            registry.inc(f"{prefix}.penalty_slots.{cause}", slots)

"""Prediction-stream recording and replay.

Every table/figure sweep in the paper runs the *same* architectural trace
across many fetch-policy × I-cache cells.  Under the ``"architectural"``
branch schedule (:class:`~repro.config.SimConfig.branch_schedule`) the
branch predictor trains on a cache-independent clock — the perfect-cache
fetch clock — so the per-branch outcome sequence (predicted direction and
target, BTB hit class, penalty slots, wrong-path walk) is **identical for
every policy and cache geometry**.  This module exploits that:

* :func:`build_stream` records the outcome sequence once per (workload,
  branch-config digest, seed, trace length): it runs the event loop
  itself on the perfect-cache clock, behind a live
  :class:`~repro.branch.unit.BranchUnit` that logs each prediction, so
  the simulator has one architectural clock, not a copy for recording.
  The :class:`PredictionStream` keeps that log as it is: the
  :class:`~repro.branch.unit.PredictionResult` objects the live unit
  returned and the wrong-path runs of every redirect, equal ones
  interned;
* :class:`ReplayBranchUnit` is a drop-in facade the engine consumes
  through the :func:`~repro.core.engine.build_branch_unit` seam: it
  hands out the recorded results themselves and derives its
  :class:`~repro.branch.unit.BranchStats` from them, so replay is
  **bit-identical** by construction (differential-tested in
  ``tests/core/test_stream_replay.py``);
* NumPy appears only at the disk boundary: under
  :class:`~repro.core.artifacts.ArtifactCache` a stream is a directory
  of eleven ``.npy`` arrays (:meth:`PredictionStream.save`), which
  :meth:`PredictionStream.load` validates and converts back to results
  and runs at once.

Wrong-path walks are recorded as line-size-independent ``(pc, n)``
straight-line runs (the walk depends only on the code image and
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
from dataclasses import asdict, dataclass, field, replace
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

#: On-disk stream layout version.  Bump when the array schema or the
#: recording semantics change; old stream entries become misses (and
#: are reclaimed by ``ArtifactCache.prune()``).
STREAM_FORMAT_VERSION = 1

#: Outcome/cause enums by compact array code (and back).
_OUTCOMES = (FetchOutcome.CORRECT, FetchOutcome.MISFETCH, FetchOutcome.MISPREDICT)
_CAUSES = (
    PenaltyCause.NONE,
    PenaltyCause.BTB_MISFETCH,
    PenaltyCause.PHT_MISPREDICT,
    PenaltyCause.BTB_MISPREDICT,
)
_CORRECT = FetchOutcome.CORRECT
_BTB_MISFETCH = PenaltyCause.BTB_MISFETCH
_PHT_MISPREDICT = PenaltyCause.PHT_MISPREDICT
_BTB_MISPREDICT = PenaltyCause.BTB_MISPREDICT
#: ``penalty_slots_by_cause`` keys, bound once: an enum's ``.value`` is
#: a property call, and replay charges one per redirect.
_BTB_MISFETCH_KEY = _BTB_MISFETCH.value
_PHT_MISPREDICT_KEY = _PHT_MISPREDICT.value
_BTB_MISPREDICT_KEY = _BTB_MISPREDICT.value

#: Array fields of a saved stream, in on-disk order: (name, dtype).
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
#: saved arrays its fields become.
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

    ``results[i]`` is the :class:`PredictionResult` the live unit
    returned for the *i*-th control transfer (one per non-PLAIN trace
    block, in trace order), and ``walks[i]`` the wrong-path walk of a
    redirected transfer as a tuple of ``(pc, n)`` runs.  Equal results
    and equal walks are one interned object each (a gcc stream has about
    three records per distinct redirect and eight per distinct walk),
    so the stream costs about what its arrays do.  Both are read-only
    once recorded: every engine and fork replaying the stream shares
    them.

    On disk (:meth:`save`) the stream is eleven arrays:

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
    wp_pc       int64  wrong-path run start addresses
    wp_n        int32  wrong-path run instruction counts
    ==========  =====  ====================================================
    """

    program_name: str
    trace_seed: int | None
    trace_instructions: int
    trace_blocks: int
    digest: str
    results: list[PredictionResult]
    #: Record index -> that record's wrong-path ``(pc, n)`` runs, in
    #: record order.
    walks: dict[int, tuple[tuple[int, int], ...]]
    #: The vector backend's per-redirect columns, derived once per
    #: stream (:mod:`repro.core.vector`).
    redirect_columns: object = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_records(self) -> int:
        """Number of recorded control transfers."""
        return len(self.results)

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

    def arrays(self) -> dict[str, np.ndarray]:
        """This stream as its eleven on-disk arrays, by name."""
        # One pass over the results, each a row of _RESULT_DTYPE
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
        arrays = {name: rows[name].copy() for name in _RESULT_DTYPE.names}
        runs_per_record = np.zeros(len(rows) + 1, dtype=np.int64)
        del rows
        for index, walk in self.walks.items():
            runs_per_record[index + 1] = len(walk)
        arrays["wp_off"] = np.cumsum(runs_per_record)
        runs = np.array(
            [run for walk in self.walks.values() for run in walk], np.int64
        ).reshape(-1, 2)
        arrays["wp_pc"] = runs[:, 0].copy()
        arrays["wp_n"] = runs[:, 1].astype(np.int32)
        return arrays

    def save(self, directory: str | os.PathLike[str]) -> None:
        """Write this stream to *directory*, atomically.

        Arrays go to individual ``.npy`` files, published as one
        directory by :func:`~repro.core.durable.publish_dir`.  Raises
        ``OSError`` on failure; a concurrent writer that published first
        is not one.
        """

        def fill(tmp: Path) -> None:
            for name, array in self.arrays().items():
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
    def load(cls, directory: str | os.PathLike[str]) -> PredictionStream:
        """Read a stream from *directory* (written by :meth:`save`).

        The arrays are validated, then converted to results and runs at
        once.  Raises ``OSError`` / ``ValueError`` / ``KeyError`` on any
        corruption; callers treat those as cache misses.
        """
        directory = Path(directory)
        with open(directory / _META_NAME, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta["format"] != STREAM_FORMAT_VERSION:
            raise ValueError(
                f"stream format {meta['format']} != {STREAM_FORMAT_VERSION}"
            )
        arrays = {}
        for name, dtype in _FIELDS:
            array = np.load(directory / f"{name}.npy")
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
        wp_off = arrays["wp_off"]
        if (
            wp_off[0] != 0
            or wp_off[-1] != len(arrays["wp_pc"])
            or (np.diff(wp_off) < 0).any()
        ):
            raise ValueError("wrong-path offsets out of order or range")
        return cls(
            program_name=meta["program"],
            trace_seed=meta["seed"],
            trace_instructions=int(meta["instructions"]),
            trace_blocks=int(meta["blocks"]),
            digest=meta["digest"],
            results=_results_from_arrays(arrays),
            walks=_walks_from_arrays(arrays),
        )


def _results_from_arrays(arrays: dict[str, np.ndarray]) -> list[PredictionResult]:
    """The saved result arrays back as the recorder's (interned) results."""
    if not (
        np.isin(arrays["outcome"], range(len(_OUTCOMES))).all()
        and np.isin(arrays["cause"], range(len(_CAUSES))).all()
    ):
        raise ValueError("stream outcome/cause codes out of range")
    results = []
    append = results.append
    redirects: dict[PredictionResult, PredictionResult] = {}
    for outcome, cause, penalty, start, delay, slots, pht, taken in zip(
        *(arrays[name].tolist() for name in _RESULT_DTYPE.names)
    ):
        pht_index = None if pht < 0 else pht
        predicted_taken = None if taken < 0 else taken == 1
        if outcome == 0:
            append(correct_result(pht_index, predicted_taken))
        else:
            result = PredictionResult(
                _OUTCOMES[outcome], _CAUSES[cause], penalty,
                None if start < 0 else start, delay, slots,
                pht_index, predicted_taken,
            )
            append(redirects.setdefault(result, result))
    return results


def _walks_from_arrays(
    arrays: dict[str, np.ndarray]
) -> dict[int, tuple[tuple[int, int], ...]]:
    """The saved wrong-path arrays back as the recorder's (interned)
    walks."""
    wp_off = arrays["wp_off"]
    runs = tuple(zip(arrays["wp_pc"].tolist(), arrays["wp_n"].tolist()))
    offsets = wp_off.tolist()
    interned: dict[tuple, tuple] = {}
    walks = {}
    for index in np.flatnonzero(np.diff(wp_off)).tolist():
        walk = runs[offsets[index] : offsets[index + 1]]
        walks[index] = interned.setdefault(walk, walk)
    return walks


class _RecordingUnit(BranchUnit):
    """The live branch unit, logging every prediction it returns and, for
    each non-correct one, the wrong-path walk against the predictor
    state of that moment.  A redirected ``CALL`` is walked after
    :meth:`notify_call`, which the event loop calls right after
    predicting it.  Redirects and walks are logged (and returned)
    interned: correct results already are (:func:`correct_result`)."""

    def __init__(self, live: BranchUnit, image) -> None:
        # Deferred: repro.core imports this module.
        from repro.core.wrongpath import iter_wrong_path_runs

        self.__dict__.update(live.__dict__)  # the fresh unit's state
        self._image = image
        self._wrong_path_runs = iter_wrong_path_runs
        self.results: list[PredictionResult] = []
        #: Record index -> that record's wrong-path ``(pc, n)`` runs.
        self.walks: dict[int, tuple[tuple[int, int], ...]] = {}
        self._redirects: dict[PredictionResult, PredictionResult] = {}
        self._walk_forms: dict[tuple, tuple] = {}

    def predict(self, pc, kind, *args) -> PredictionResult:
        result = BranchUnit.predict(self, pc, kind, *args)
        # A conditional is logged by predict_conditional.
        if kind is not InstrKind.COND_BRANCH:
            if result.outcome is _CORRECT:
                self.results.append(result)
            else:
                result = self._redirects.setdefault(result, result)
                self.results.append(result)
                if kind is not InstrKind.CALL:
                    self._walk(result)
        return result

    def predict_conditional(self, *args) -> PredictionResult:
        result = BranchUnit.predict_conditional(self, *args)
        if result.outcome is _CORRECT:
            self.results.append(result)
        else:
            result = self._redirects.setdefault(result, result)
            self.results.append(result)
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
            walk = tuple(self._wrong_path_runs(self._image, self, start, slots))
            self.walks[len(self.results) - 1] = self._walk_forms.setdefault(
                walk, walk
            )


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
        results=recorder.results,
        walks=recorder.walks,
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

    def __init__(self, stream: PredictionStream, line_size: int) -> None:
        # Deferred import: repro.core imports this module.
        from repro.core.wrongpath import iter_lines_from_runs

        walks = stream.walks
        interned: dict[tuple[int, int], tuple[int, int]] = {}
        #: Each distinct walk, split once.
        splits: dict[tuple, list[tuple[int, int]]] = {}
        lines: list[tuple[int, int]] = []
        ev_off = [0]
        for e in range(stream.n_records):
            walk = walks.get(e)
            if walk is not None:
                chunks = splits.get(walk)
                if chunks is None:
                    chunks = splits[walk] = [
                        interned.setdefault(chunk, chunk)
                        for chunk in iter_lines_from_runs(walk, line_size)
                    ]
                lines += chunks
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
        lambda: RecordedWalks(stream, line_size),
    )


class ReplayBranchUnit:
    """Drop-in :class:`BranchUnit` facade that replays a recorded stream.

    Consumed by the engine through the ``build_branch_unit`` seam: it
    hands out the recorded :class:`PredictionResult` objects in order,
    keeps :class:`BranchStats` exactly as the live unit would (derived
    from each result), and serves recorded wrong-path walks split at
    the engine's line size (:func:`recorded_walks`).
    ``resolve`` / ``notify_call`` are no-ops — the training they would do
    is already baked into the recorded outcomes.
    """

    __slots__ = ("stream", "stats", "_results", "_cursor", "_last", "_walks")

    def __init__(self, stream: PredictionStream, config: SimConfig) -> None:
        stream.require_compatible(stream.program_name, config)
        self.stream = stream
        self.stats = BranchStats()
        self._results = stream.results
        self._cursor = 0
        self._last = -1
        self._walks: RecordedWalks | None = None

    def __deepcopy__(self, memo: dict) -> ReplayBranchUnit:
        """Fork-friendly copy: the stream and its results are read-only,
        so an engine fork shares them and deep-copies only the mutable
        replay state (:class:`BranchStats`, cursor)."""
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
        """Replay the next recorded result, already counted as a correct
        prediction (by :meth:`predict` or :meth:`count_conditionals`);
        the result is recorded per transfer, so this serves every
        kind."""
        i = self._cursor
        try:
            result = self._results[i]
        except IndexError:
            raise SimulationError(
                f"prediction stream exhausted after {i} records "
                f"(trace/stream mismatch for {self.stream.program_name!r})"
            ) from None
        self._cursor = i + 1
        if result.outcome is _CORRECT:
            return result
        self._last = i
        stats = self.stats
        stats.correct -= 1
        cause = result.cause
        if cause is _PHT_MISPREDICT:
            stats.pht_mispredicts += 1
            stats.penalty_slots_by_cause[_PHT_MISPREDICT_KEY] += result.penalty_slots
        elif cause is _BTB_MISFETCH:
            stats.btb_misfetches += 1
            stats.penalty_slots_by_cause[_BTB_MISFETCH_KEY] += result.penalty_slots
        elif cause is _BTB_MISPREDICT:
            stats.btb_mispredicts += 1
            stats.penalty_slots_by_cause[_BTB_MISPREDICT_KEY] += result.penalty_slots
        return result

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

"""Prediction-stream precompute and replay.

Every table/figure sweep in the paper runs the *same* architectural trace
across many fetch-policy × I-cache cells.  Under the ``"architectural"``
branch schedule (:class:`~repro.config.SimConfig.branch_schedule`) the
branch predictor trains on a cache-independent clock — the perfect-cache
fetch clock — so the per-branch outcome sequence (predicted direction and
target, BTB hit class, penalty slots, wrong-path walk) is **identical for
every policy and cache geometry**.  This module exploits that:

* :func:`build_stream` runs the live :class:`~repro.branch.unit.BranchUnit`
  once per (workload, branch-config digest, seed, trace length) and records
  the outcome sequence as compact NumPy arrays
  (:class:`PredictionStream`);
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
:func:`replay_eligible` and docs/performance.md.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.branch.unit import (
    BranchStats,
    FetchOutcome,
    PenaltyCause,
    PredictionResult,
    correct_result,
)
from repro.config import SimConfig
from repro.core.durable import publish_dir
from repro.errors import SimulationError
from repro.isa import INSTRUCTION_SIZE, InstrKind
from repro.program.program import Program
from repro.trace.event import Trace

#: On-disk / in-memory stream layout version.  Bump when the array schema
#: or the recording semantics change; old stream entries become misses
#: (and are reclaimed by ``ArtifactCache.prune()``).
STREAM_FORMAT_VERSION = 1

_PLAIN = int(InstrKind.PLAIN)
_COND = int(InstrKind.COND_BRANCH)
_CALL = int(InstrKind.CALL)
_KIND_FROM_INT = tuple(InstrKind(value) for value in range(len(InstrKind)))

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
_OUTCOME_CODE = {outcome: code for code, outcome in enumerate(_OUTCOMES)}
_CAUSE_CODE = {cause: code for code, cause in enumerate(_CAUSES)}

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


def build_stream(program: Program, trace: Trace, config: SimConfig) -> PredictionStream:
    """Run the live predictor once and record its outcome stream.

    The recording pass advances a pure architectural clock — exactly the
    perfect-cache fetch clock of :meth:`FetchEngine.run` (block issue,
    speculation-depth gate, resolution application, redirect penalties) —
    so the recorded stream is bit-identical to what any replay-eligible
    cell's engine would have computed live.
    """
    # Deferred: repro.core imports this module (via artifacts/engine), so
    # importing repro.core at our module level would be circular.
    from repro.core.engine import build_branch_unit
    from repro.core.wrongpath import iter_wrong_path_runs

    if trace.program_name != program.name:
        raise SimulationError(
            f"trace is for {trace.program_name!r}, "
            f"stream requested for {program.name!r}"
        )
    unit = build_branch_unit(config)
    image = program.image
    targets = image.targets_list
    base = image.base
    predict = unit.predict
    resolve = unit.resolve
    resolve_slots = config.resolve_latency_slots
    max_unresolved = config.max_unresolved
    queue: deque[tuple[int, int | None, bool, int]] = deque()

    outcome_l: list[int] = []
    cause_l: list[int] = []
    penalty_l: list[int] = []
    delay_l: list[int] = []
    wslots_l: list[int] = []
    wstart_l: list[int] = []
    pht_l: list[int] = []
    pred_l: list[int] = []
    wp_off: list[int] = [0]
    wp_pc: list[int] = []
    wp_n: list[int] = []

    tau = 0
    for record in trace.records:
        start, length, kind, taken, next_pc = record
        if kind == _COND:
            tau += length - 1
            if queue:
                if queue[0][0] <= tau:
                    while queue and queue[0][0] <= tau:
                        _, pht_index, q_taken, pc = queue.popleft()
                        resolve(pht_index, q_taken, pc)
                if len(queue) >= max_unresolved:
                    head = queue[0][0]
                    if head > tau:
                        tau = head
                    while queue and queue[0][0] <= tau:
                        _, pht_index, q_taken, pc = queue.popleft()
                        resolve(pht_index, q_taken, pc)
            tau += 1
        else:
            tau += length
            if kind == _PLAIN:
                continue
        tau_br = tau - 1
        if queue and queue[0][0] <= tau_br:
            while queue and queue[0][0] <= tau_br:
                _, pht_index, q_taken, pc = queue.popleft()
                resolve(pht_index, q_taken, pc)
        term_addr = start + (length - 1) * INSTRUCTION_SIZE
        ctrl_idx = (term_addr - base) // INSTRUCTION_SIZE
        raw_target = targets[ctrl_idx]
        static_target = None if raw_target < 0 else raw_target
        fall = term_addr + INSTRUCTION_SIZE
        result = predict(
            term_addr, _KIND_FROM_INT[kind], static_target, taken, next_pc, fall
        )
        if kind == _CALL:
            unit.notify_call(fall)
        if kind == _COND:
            queue.append((tau_br + resolve_slots, result.pht_index, taken, term_addr))

        outcome_l.append(_OUTCOME_CODE[result.outcome])
        cause_l.append(_CAUSE_CODE[result.cause])
        penalty_l.append(result.penalty_slots)
        delay_l.append(result.wrong_path_delay)
        wslots_l.append(result.wrong_path_slots)
        wstart_l.append(-1 if result.wrong_path_start is None else result.wrong_path_start)
        pht_l.append(-1 if result.pht_index is None else result.pht_index)
        pred_l.append(
            -1 if result.predicted_taken is None else int(result.predicted_taken)
        )
        if result.outcome is not FetchOutcome.CORRECT:
            if result.wrong_path_start is not None and result.wrong_path_slots > 0:
                for seg_pc, seg_n in iter_wrong_path_runs(
                    image, unit, result.wrong_path_start, result.wrong_path_slots
                ):
                    wp_pc.append(seg_pc)
                    wp_n.append(seg_n)
            tau = tau_br + 1 + result.penalty_slots
        wp_off.append(len(wp_pc))
    # Parity with the engine's end-of-run flush (every queued branch has
    # resolve_at <= clock + resolve_slots, so the flush drains the queue).
    while queue:
        _, pht_index, q_taken, pc = queue.popleft()
        resolve(pht_index, q_taken, pc)

    arrays = {
        "outcome": np.asarray(outcome_l, dtype=np.int8),
        "cause": np.asarray(cause_l, dtype=np.int8),
        "penalty": np.asarray(penalty_l, dtype=np.int32),
        "delay": np.asarray(delay_l, dtype=np.int32),
        "wslots": np.asarray(wslots_l, dtype=np.int32),
        "wstart": np.asarray(wstart_l, dtype=np.int64),
        "pht_index": np.asarray(pht_l, dtype=np.int32),
        "pred_taken": np.asarray(pred_l, dtype=np.int8),
        "wp_off": np.asarray(wp_off, dtype=np.int64),
        "wp_pc": np.asarray(wp_pc, dtype=np.int64),
        "wp_n": np.asarray(wp_n, dtype=np.int32),
    }
    return PredictionStream(
        program_name=program.name,
        trace_seed=trace.seed,
        trace_instructions=trace.n_instructions,
        trace_blocks=trace.n_blocks,
        digest=stream_digest(config),
        **arrays,
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

    __slots__ = (
        "outcome",
        "cause",
        "penalty",
        "delay",
        "wslots",
        "wstart",
        "pht_index",
        "pred_taken",
        "wp_off",
        "wp_pc",
        "wp_n",
    )

    def __init__(self, stream: PredictionStream) -> None:
        self.outcome = stream.outcome.tolist()
        self.cause = stream.cause.tolist()
        self.penalty = stream.penalty.tolist()
        self.delay = stream.delay.tolist()
        self.wslots = stream.wslots.tolist()
        self.wstart = stream.wstart.tolist()
        self.pht_index = stream.pht_index.tolist()
        self.pred_taken = stream.pred_taken.tolist()
        self.wp_off = stream.wp_off.tolist()
        self.wp_pc = stream.wp_pc.tolist()
        self.wp_n = stream.wp_n.tolist()


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
        "_outcome",
        "_cause",
        "_penalty",
        "_delay",
        "_wslots",
        "_wstart",
        "_pht_index",
        "_pred_taken",
        "_walks",
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
        self._outcome = lowered.outcome
        self._cause = lowered.cause
        self._penalty = lowered.penalty
        self._delay = lowered.delay
        self._wslots = lowered.wslots
        self._wstart = lowered.wstart
        self._pht_index = lowered.pht_index
        self._pred_taken = lowered.pred_taken
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

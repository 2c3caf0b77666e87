"""The branch unit: fetch-time prediction and outcome classification.

This module encodes the paper's front-end branch semantics (§4.1):

* a **decoupled** design — a 64-entry 4-way BTB supplies targets of
  recently taken branches, a 512-entry gshare PHT supplies directions for
  *all* conditional branches (BTB-resident or not);
* **misfetch** — the branch's target had to be computed at decode (BTB miss
  on a transfer that needs to redirect): 2-cycle (8-slot) penalty;
* **mispredict** — the direction (PHT) or the dynamic target (stale BTB
  entry for a return/indirect call) was wrong, discovered at resolution:
  4-cycle (16-slot) penalty;
* the PHT counters and the global history update **only at resolution**,
  so predictions made under deep speculation see stale history — the
  effect Table 3 of the paper quantifies;
* the BTB updates **speculatively at decode** (predicted-taken branches
  are inserted), with a non-speculative variant available for ablations.

The unit is purely about branches; all I-cache/bus timing lives in
:mod:`repro.core.engine`.

The conditional-branch path (:meth:`BranchUnit.predict_conditional`)
and :meth:`BranchUnit.resolve` run once per dynamic branch, so they
apply the BTB lookup, PHT index, counter-table and history rules inline
rather than through the component methods; the components
(:mod:`repro.branch.btb`, :mod:`repro.branch.pht`,
:mod:`repro.branch.history`) keep the same rules as their public API.
The counts every conditional branch adds (``conditional``, ``correct``,
``btb.hits``) are credited up front by :meth:`BranchUnit.count_conditionals`,
so the hot path counts only the exceptions.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.history import GlobalHistory
from repro.branch.pht import PatternHistoryTable
from repro.branch.ras import ReturnAddressStack
from repro.branch.static import StaticPredictor
from repro.errors import ConfigError, SimulationError
from repro.isa import INSTRUCTION_SIZE, InstrKind

#: Issue slots lost to a misfetch (2 cycles x 4-wide issue).
MISFETCH_PENALTY_SLOTS = 8
#: Issue slots lost to a mispredict (4 cycles x 4-wide issue).
MISPREDICT_PENALTY_SLOTS = 16
#: Slots from a branch's fetch to its decode (2 cycles).
DECODE_LATENCY_SLOTS = 8
#: Slots from a conditional branch's fetch to its resolution (4 cycles).
RESOLVE_LATENCY_SLOTS = 16


class FetchOutcome(enum.Enum):
    """How the fetch of one control transfer went."""

    CORRECT = "correct"
    MISFETCH = "misfetch"
    MISPREDICT = "mispredict"


class PenaltyCause(enum.Enum):
    """Which structure is to blame (Table 3's decomposition)."""

    NONE = "none"
    BTB_MISFETCH = "btb_misfetch"
    PHT_MISPREDICT = "pht_mispredict"
    BTB_MISPREDICT = "btb_mispredict"


class PredictionResult(NamedTuple):
    """Everything the engine needs to account for one control transfer.

    Immutable (a named tuple: cheap to build, and assigning a field
    raises), so correct results can be interned and shared — see
    :func:`correct_result`.

    Attributes:
        outcome: CORRECT / MISFETCH / MISPREDICT.
        cause: blame category for the penalty.
        penalty_slots: total issue slots lost (0 / 8 / 16).
        wrong_path_start: first address of wrong-path fetch, or ``None``
            when nothing wrong is fetched.
        wrong_path_delay: slots after the branch before wrong-path fetch
            begins (nonzero only for the misfetch-then-mispredict
            composite, whose first two cycles fetch squashed correct-path
            instructions).
        wrong_path_slots: length of the wrong-path fetch window in slots.
        pht_index: prediction-time PHT index to update at resolution
            (conditional branches only).
        predicted_taken: the direction prediction (conditionals only).
    """

    outcome: FetchOutcome
    cause: PenaltyCause
    penalty_slots: int
    wrong_path_start: int | None
    wrong_path_delay: int
    wrong_path_slots: int
    pht_index: int | None
    predicted_taken: bool | None


_COND = InstrKind.COND_BRANCH

#: ``penalty_slots_by_cause`` keys, bound once: an enum's ``.value`` is
#: a property call, and the redirect paths charge one per redirect.
_BTB_MISFETCH = PenaltyCause.BTB_MISFETCH.value
_PHT_MISPREDICT = PenaltyCause.PHT_MISPREDICT.value
_BTB_MISPREDICT = PenaltyCause.BTB_MISPREDICT.value


@functools.cache
def correct_result(
    pht_index: int | None, predicted_taken: bool | None
) -> PredictionResult:
    """The interned result of a correctly predicted transfer.

    One immutable object per ``(pht_index, predicted_taken)``.  The
    intern table lives on this function, outside every branch unit, so
    engine forks (deep copies of the unit) share it instead of copying it.
    """
    return PredictionResult(
        FetchOutcome.CORRECT, PenaltyCause.NONE, 0, None, 0, 0,
        pht_index, predicted_taken,
    )


@dataclass(slots=True)
class BranchStats:
    """Dynamic event counts for Table 3-style reporting."""

    conditional: int = 0
    unconditional: int = 0
    correct: int = 0
    pht_mispredicts: int = 0
    btb_misfetches: int = 0
    btb_mispredicts: int = 0
    penalty_slots_by_cause: dict[str, int] = field(
        default_factory=lambda: {
            _BTB_MISFETCH: 0,
            _PHT_MISPREDICT: 0,
            _BTB_MISPREDICT: 0,
        }
    )


class BranchUnit:
    """Decoupled (or, for ablation, coupled) BTB + PHT front end."""

    def __init__(
        self,
        btb: BranchTargetBuffer,
        pht: PatternHistoryTable,
        history: GlobalHistory,
        coupled: bool = False,
        speculative_btb_update: bool = True,
        ras: ReturnAddressStack | None = None,
        static_fallback: StaticPredictor | None = None,
        misfetch_penalty_slots: int = MISFETCH_PENALTY_SLOTS,
        mispredict_penalty_slots: int = MISPREDICT_PENALTY_SLOTS,
    ) -> None:
        if misfetch_penalty_slots < 0 or mispredict_penalty_slots < misfetch_penalty_slots:
            raise ConfigError(
                "penalties must satisfy 0 <= misfetch <= mispredict, got "
                f"{misfetch_penalty_slots} / {mispredict_penalty_slots}"
            )
        self.btb = btb
        self.pht = pht
        self.history = history
        self.coupled = coupled
        self.speculative_btb_update = speculative_btb_update
        self.ras = ras
        self.static_fallback = static_fallback or StaticPredictor("not-taken")
        self.misfetch_penalty_slots = misfetch_penalty_slots
        self.mispredict_penalty_slots = mispredict_penalty_slots
        self.stats = BranchStats()
        # What the inline PHT index, read and update use: the index
        # masks and the counter table's list (one list for the table's
        # lifetime) and step tables.
        table = pht.table
        self._pht_pc_bits = pht.pc_bits
        self._pht_history_bits = pht.history_bits
        self._pht_mask = pht.index_mask
        self._pht_values = table.values
        self._pht_threshold = table.threshold
        self._pht_step = table.step

    # -- the main classification entry point ---------------------------------

    def predict(
        self,
        pc: int,
        kind: InstrKind,
        static_target: int | None,
        actual_taken: bool,
        actual_target: int,
        fall_through: int,
    ) -> PredictionResult:
        """Predict the transfer at *pc* and classify against the truth.

        ``actual_target`` is the actual next PC (trace ground truth);
        ``static_target`` is the target encoded in the instruction (None
        for returns / indirect calls).
        """
        if kind is _COND:
            self.count_conditionals(1)
            return self.predict_conditional(
                pc, static_target, actual_taken, fall_through
            )
        if kind is InstrKind.JUMP or kind is InstrKind.CALL:
            return self._predict_direct(pc, actual_target, fall_through)
        if kind is InstrKind.RETURN:
            return self._predict_return(pc, actual_target, fall_through)
        if kind is InstrKind.INDIRECT_CALL:
            return self._predict_indirect(pc, actual_target, fall_through)
        raise SimulationError(f"non-control kind {kind} reached the branch unit")

    def count_conditionals(self, n: int) -> None:
        """Count *n* conditional predictions ahead of
        :meth:`predict_conditional` making them, as correct and as BTB
        hits: each prediction that turns out otherwise moves itself out
        of those counts.  The event loop counts a whole span's
        conditionals here at once, from its lowering."""
        stats = self.stats
        stats.conditional += n
        stats.correct += n
        self.btb.hits += n

    def _misfetch(
        self,
        wrong_start: int,
        pht_index: int | None,
        predicted_taken: bool | None,
    ) -> PredictionResult:
        """Charge and build a misfetch: the fall-through (*wrong_start*)
        is fetched until the decode-time redirect."""
        stats = self.stats
        slots = self.misfetch_penalty_slots
        stats.btb_misfetches += 1
        stats.penalty_slots_by_cause[_BTB_MISFETCH] += slots
        return PredictionResult(
            FetchOutcome.MISFETCH, PenaltyCause.BTB_MISFETCH, slots,
            wrong_start, 0, slots, pht_index, predicted_taken,
        )

    def predict_conditional(
        self,
        pc: int,
        static_target: int | None,
        actual_taken: bool,
        fall_through: int,
    ) -> PredictionResult:
        """:meth:`predict` for a conditional branch already counted
        through :meth:`count_conditionals`."""
        if static_target is None:
            raise SimulationError(f"conditional at {pc:#x} lacks a static target")
        # BTB lookup (BranchTargetBuffer.touch): a hit moves the entry
        # to the MRU end of its set.
        btb = self.btb
        word = pc // INSTRUCTION_SIZE
        set_idx = word & btb.set_mask
        words = btb._words[set_idx]
        if word in words:
            ways = btb._sets[set_idx]
            i = words.index(word)
            entry = ways[i]
            if words[-1] != word:
                del words[i]
                words.append(word)
                del ways[i]
                ways.append(entry)
        else:
            entry = None
            btb.hits -= 1
            btb.misses += 1
        # Direction: the PHT at the (stale) resolved history, or for
        # coupled designs the BTB entry's counter / the static fallback.
        if self.coupled:
            pht_index = None
            if entry is not None:
                predicted_taken = entry.counter >= btb.counter_threshold
            else:
                predicted_taken = self.static_fallback.predict(pc, static_target)
        else:
            # PatternHistoryTable.predict at the resolved history.
            pht_index = (
                (word & self._pht_pc_bits)
                ^ (self.history.value & self._pht_history_bits)
            ) & self._pht_mask
            predicted_taken = self._pht_values[pht_index] >= self._pht_threshold
        # BTB insert: at decode when predicted taken (speculative update,
        # with the decode-computed static target), else once the branch
        # resolves taken.  On a lookup hit the entry is already MRU, so
        # refreshing it only rewrites the target.
        if actual_taken or (predicted_taken and self.speculative_btb_update):
            if entry is not None:
                entry.target = static_target
            else:
                btb.install(set_idx, word, static_target)

        if predicted_taken == actual_taken:
            if not predicted_taken or entry is not None:
                # Not taken, or taken with the target from the BTB: clean.
                return correct_result(pht_index, predicted_taken)
            # Predicted taken but the target had to be computed at decode:
            # misfetch.  The two pre-decode cycles fetched the fall-through,
            # which is wrong because the branch is taken.
            self.stats.correct -= 1
            return self._misfetch(fall_through, pht_index, predicted_taken)
        # Direction mispredict (PHT's fault in the decoupled design).
        slots = self.mispredict_penalty_slots
        stats = self.stats
        stats.correct -= 1
        stats.pht_mispredicts += 1
        stats.penalty_slots_by_cause[_PHT_MISPREDICT] += slots
        if predicted_taken:
            if entry is not None:
                # Fetched the taken target immediately; wrong for 4 cycles.
                wrong_start = entry.target
                delay = 0
            else:
                # Composite: 2 cycles of (squashed) fall-through fetch, then
                # a decode-time redirect to the (wrong) computed target for
                # the remaining 2 cycles.
                wrong_start = static_target
                delay = self.misfetch_penalty_slots
        else:
            # Predicted not taken: fall-through fetched for 4 cycles.
            wrong_start = fall_through
            delay = 0
        return PredictionResult(
            FetchOutcome.MISPREDICT, PenaltyCause.PHT_MISPREDICT, slots,
            wrong_start, delay, slots - delay, pht_index, predicted_taken,
        )

    def _predict_direct(
        self, pc: int, actual_target: int, fall_through: int
    ) -> PredictionResult:
        self.stats.unconditional += 1
        # One BTB locate serves the lookup and, on a miss, the install.
        btb = self.btb
        word = pc // INSTRUCTION_SIZE
        set_idx = word & btb.set_mask
        if btb.touch(set_idx, word) is not None:
            btb.hits += 1
            self.stats.correct += 1
            return correct_result(None, None)
        btb.misses += 1
        btb.install(set_idx, word, actual_target)
        return self._misfetch(fall_through, None, None)

    def _predict_dynamic_target(
        self, pc: int, actual_target: int, fall_through: int, via_ras: bool
    ) -> PredictionResult:
        """Shared path for returns and indirect calls (dynamic targets)."""
        predicted: int | None = None
        if via_ras and self.ras is not None:
            predicted = self.ras.pop()
        # One BTB locate serves the lookup (counted only when the RAS
        # had no prediction) and the update to the actual target.
        btb = self.btb
        word = pc // INSTRUCTION_SIZE
        set_idx = word & btb.set_mask
        entry = btb.touch(set_idx, word)
        if predicted is None:
            if entry is None:
                btb.misses += 1
            else:
                btb.hits += 1
                predicted = entry.target
        if entry is None:
            btb.install(set_idx, word, actual_target)
        else:
            entry.target = actual_target
        if predicted is None:
            return self._misfetch(fall_through, None, None)
        if predicted == actual_target:
            self.stats.correct += 1
            return correct_result(None, None)
        stats = self.stats
        slots = self.mispredict_penalty_slots
        stats.btb_mispredicts += 1
        stats.penalty_slots_by_cause[_BTB_MISPREDICT] += slots
        return PredictionResult(
            FetchOutcome.MISPREDICT, PenaltyCause.BTB_MISPREDICT, slots,
            predicted, 0, slots, None, None,
        )

    def _predict_return(
        self, pc: int, actual_target: int, fall_through: int
    ) -> PredictionResult:
        self.stats.unconditional += 1
        return self._predict_dynamic_target(pc, actual_target, fall_through, True)

    def _predict_indirect(
        self, pc: int, actual_target: int, fall_through: int
    ) -> PredictionResult:
        self.stats.unconditional += 1
        if self.ras is not None:
            # Indirect *calls* push their return address.
            self.ras.push(fall_through)
        return self._predict_dynamic_target(pc, actual_target, fall_through, False)

    def notify_call(self, return_address: int) -> None:
        """Tell the RAS (if present) that a direct call was fetched."""
        if self.ras is not None:
            self.ras.push(return_address)

    # -- resolution -----------------------------------------------------------

    def resolve(self, pht_index: int | None, taken: bool, pc: int | None = None) -> None:
        """Resolve one conditional branch: update counters and history.

        The paper's architecture delays both updates to resolution; the
        engine calls this when the branch's resolve time is reached.  For
        coupled designs the direction state lives in the BTB entry, so
        *pc* locates it; decoupled designs update the PHT at the
        prediction-time *pht_index*.
        """
        if self.coupled:
            if pc is not None:
                self.btb.update_counter(pc, taken)
        elif pht_index is not None:
            # CounterTable.update: the saturating step towards the outcome.
            values = self._pht_values
            values[pht_index] = self._pht_step[taken][values[pht_index]]
        # GlobalHistory.shift_in: the outcome enters at bit 0.
        history = self.history
        history.value = ((history.value << 1) | taken) & history.mask

    # -- wrong-path (speculative, read-only) probes ---------------------------

    def peek_direction(self, pc: int) -> bool:
        """Direction prediction without touching predictor state."""
        if self.coupled:
            entry = self.btb.peek(pc)
            if entry is not None:
                return self.btb.counter_predicts_taken(entry)
            return self.static_fallback.predict(pc, None)
        return self.pht.predict(pc, self.history.value)[0]

    def peek_target(self, pc: int) -> int | None:
        """BTB target without touching LRU/statistics."""
        entry = self.btb.peek(pc)
        return entry.target if entry is not None else None

    # -- observability ---------------------------------------------------------

    def publish_metrics(self, registry, prefix: str = "branch") -> None:
        """Publish dynamic branch statistics into a metrics registry."""
        stats = self.stats
        registry.inc(f"{prefix}.conditional", stats.conditional)
        registry.inc(f"{prefix}.unconditional", stats.unconditional)
        registry.inc(f"{prefix}.correct", stats.correct)
        registry.inc(f"{prefix}.pht_mispredicts", stats.pht_mispredicts)
        registry.inc(f"{prefix}.btb_misfetches", stats.btb_misfetches)
        registry.inc(f"{prefix}.btb_mispredicts", stats.btb_mispredicts)
        for cause, slots in sorted(stats.penalty_slots_by_cause.items()):
            registry.inc(f"{prefix}.penalty_slots.{cause}", slots)

    def reset(self) -> None:
        """Clear all predictor state and statistics."""
        self.btb.reset()
        self.pht.reset()
        self.history.reset()
        if self.ras is not None:
            self.ras.reset()
        self.stats = BranchStats()


def make_paper_branch_unit(
    btb_entries: int = 64,
    btb_assoc: int = 4,
    pht_entries: int = 512,
    history_bits: int | None = None,
    coupled: bool = False,
    speculative_btb_update: bool = True,
    use_ras: bool = False,
    ras_depth: int = 8,
) -> BranchUnit:
    """Build the paper's branch architecture (defaults = §4.1).

    ``history_bits`` defaults to log2(pht_entries), the natural gshare
    sizing (9 bits for the paper's 512-entry PHT).
    """
    from repro.branch.pht import GsharePHT

    if history_bits is None:
        history_bits = max(1, pht_entries.bit_length() - 1)
    if pht_entries & (pht_entries - 1):
        raise ConfigError(f"PHT entries must be a power of two, got {pht_entries}")
    return BranchUnit(
        btb=BranchTargetBuffer(entries=btb_entries, assoc=btb_assoc),
        pht=GsharePHT(pht_entries),
        history=GlobalHistory(history_bits),
        coupled=coupled,
        speculative_btb_update=speculative_btb_update,
        ras=ReturnAddressStack(ras_depth) if use_ras else None,
    )

"""Differential test: the flattened BranchUnit against a reference unit.

``ReferenceBranchUnit`` below is a straight copy of the branch unit's
predict / resolve / peek logic written through the component methods
(``BranchTargetBuffer.lookup``/``insert``, ``PatternHistoryTable``
``predict``/``update``, ``GlobalHistory.shift_in``), the way the unit
was written before its hot paths were inlined.  Random sequences of
control transfers, with resolutions interleaved in fetch order, are
driven through both units; every result field and every piece of
predictor state must agree after every step, for every predictor
organisation the configuration space offers.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import (
    BranchStats,
    BranchTargetBuffer,
    BranchUnit,
    FetchOutcome,
    GlobalHistory,
    PenaltyCause,
    ReturnAddressStack,
    StaticPredictor,
    make_pht,
)
from repro.isa import InstrKind

BASE = 0x4000
#: Distinct branch sites; more than the small BTB holds, so sets alias.
N_SITES = 40

#: (btb_entries, btb_assoc, pht_entries): a small organisation that
#: thrashes, and the paper's (§4.1).
SIZES = {"small": (8, 2, 16), "paper": (64, 4, 512)}


class ReferenceBranchUnit:
    """The branch unit's rules, one component method call at a time."""

    def __init__(self, btb, pht, history, coupled, speculative_btb_update, ras):
        self.btb = btb
        self.pht = pht
        self.history = history
        self.coupled = coupled
        self.speculative_btb_update = speculative_btb_update
        self.ras = ras
        self.static_fallback = StaticPredictor("not-taken")
        self.misfetch_penalty_slots = 8
        self.mispredict_penalty_slots = 16
        self.stats = BranchStats()

    def _predict_direction(self, pc, btb_entry, static_target):
        if self.coupled:
            if btb_entry is not None:
                return self.btb.counter_predicts_taken(btb_entry), None
            return self.static_fallback.predict(pc, static_target), None
        return self.pht.predict(pc, self.history.value)

    def predict(self, pc, kind, static_target, actual_taken, actual_target, fall):
        if kind is InstrKind.COND_BRANCH:
            return self._predict_conditional(
                pc, static_target, actual_taken, fall
            )
        self.stats.unconditional += 1
        if kind in (InstrKind.JUMP, InstrKind.CALL):
            if self.btb.lookup(pc) is None:
                self.btb.insert(pc, actual_target)
                return self._misfetch(fall, None, None)
            return self._correct(None, None)
        if kind is InstrKind.INDIRECT_CALL and self.ras is not None:
            self.ras.push(fall)
        predicted = None
        if kind is InstrKind.RETURN and self.ras is not None:
            predicted = self.ras.pop()
        if predicted is None:
            entry = self.btb.lookup(pc)
            predicted = entry.target if entry is not None else None
        self.btb.insert(pc, actual_target)
        if predicted is None:
            return self._misfetch(fall, None, None)
        if predicted == actual_target:
            return self._correct(None, None)
        self._charge(PenaltyCause.BTB_MISPREDICT, self.mispredict_penalty_slots)
        return (
            FetchOutcome.MISPREDICT, PenaltyCause.BTB_MISPREDICT,
            self.mispredict_penalty_slots, predicted, 0,
            self.mispredict_penalty_slots, None, None,
        )

    def _correct(self, pht_index, predicted_taken):
        self.stats.correct += 1
        return (
            FetchOutcome.CORRECT, PenaltyCause.NONE, 0, None, 0, 0,
            pht_index, predicted_taken,
        )

    def _charge(self, cause, slots):
        self.stats.penalty_slots_by_cause[cause.value] += slots
        if cause is PenaltyCause.BTB_MISFETCH:
            self.stats.btb_misfetches += 1
        elif cause is PenaltyCause.PHT_MISPREDICT:
            self.stats.pht_mispredicts += 1
        elif cause is PenaltyCause.BTB_MISPREDICT:
            self.stats.btb_mispredicts += 1

    def _misfetch(self, fall, pht_index, predicted_taken):
        slots = self.misfetch_penalty_slots
        self._charge(PenaltyCause.BTB_MISFETCH, slots)
        return (
            FetchOutcome.MISFETCH, PenaltyCause.BTB_MISFETCH, slots, fall, 0,
            slots, pht_index, predicted_taken,
        )

    def _predict_conditional(self, pc, static_target, actual_taken, fall):
        self.stats.conditional += 1
        entry = self.btb.lookup(pc)
        predicted_taken, pht_index = self._predict_direction(pc, entry, static_target)
        if self.speculative_btb_update and predicted_taken:
            self.btb.insert(pc, static_target)
        elif actual_taken:
            self.btb.insert(pc, static_target)
        if predicted_taken == actual_taken:
            if not predicted_taken or entry is not None:
                return self._correct(pht_index, predicted_taken)
            return self._misfetch(fall, pht_index, predicted_taken)
        self._charge(PenaltyCause.PHT_MISPREDICT, self.mispredict_penalty_slots)
        if predicted_taken:
            if entry is not None:
                start, delay = entry.target, 0
                window = self.mispredict_penalty_slots
            else:
                start, delay = static_target, self.misfetch_penalty_slots
                window = self.mispredict_penalty_slots - self.misfetch_penalty_slots
        else:
            start, delay, window = fall, 0, self.mispredict_penalty_slots
        return (
            FetchOutcome.MISPREDICT, PenaltyCause.PHT_MISPREDICT,
            self.mispredict_penalty_slots, start, delay, window, pht_index,
            predicted_taken,
        )

    def notify_call(self, return_address):
        if self.ras is not None:
            self.ras.push(return_address)

    def resolve(self, pht_index, taken, pc=None):
        if self.coupled:
            if pc is not None:
                self.btb.update_counter(pc, taken)
        elif pht_index is not None:
            self.pht.update(pht_index, taken)
        self.history.shift_in(taken)

    def peek_direction(self, pc):
        if self.coupled:
            entry = self.btb.peek(pc)
            if entry is not None:
                return self.btb.counter_predicts_taken(entry)
            return self.static_fallback.predict(pc, None)
        idx = self.pht.index(pc, self.history.snapshot())
        return self.pht.table.predict(idx)

    def peek_target(self, pc):
        entry = self.btb.peek(pc)
        return entry.target if entry is not None else None


def _components(pht_kind, size, use_ras):
    btb_entries, btb_assoc, pht_entries = SIZES[size]
    return (
        BranchTargetBuffer(entries=btb_entries, assoc=btb_assoc),
        make_pht(pht_kind, pht_entries),
        GlobalHistory(max(1, pht_entries.bit_length() - 1)),
        ReturnAddressStack(4) if use_ras else None,
    )


def _state(unit):
    """Every piece of predictor state the two units must agree on."""
    btb = unit.btb
    return (
        [[(e.tag, e.target, e.counter) for e in ways] for ways in btb._sets],
        (btb.hits, btb.misses, btb.insertions, btb.evictions),
        list(unit.pht.table.values),
        unit.history.value,
        None if unit.ras is None else list(unit.ras._stack),
        unit.stats,
    )


_KINDS = (
    InstrKind.COND_BRANCH,
    InstrKind.COND_BRANCH,
    InstrKind.COND_BRANCH,
    InstrKind.JUMP,
    InstrKind.CALL,
    InstrKind.RETURN,
    InstrKind.INDIRECT_CALL,
)

#: One step: ("resolve",), ("peek", site), or a control transfer
#: (site, kind index, taken, target choice).
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.integers(0, N_SITES - 1),
            st.integers(0, len(_KINDS) - 1),
            st.booleans(),
            st.integers(0, 3),
        ),
        st.just(("resolve",)),
        st.tuples(st.just("peek"), st.integers(0, N_SITES - 1)),
    ),
    max_size=160,
)

_ORGANISATIONS = list(
    itertools.product(
        ("gshare", "bimodal", "gag"), (False, True), (True, False),
        (False, True), tuple(SIZES),
    )
)


@pytest.mark.parametrize(
    "pht_kind,coupled,speculative,use_ras,size",
    _ORGANISATIONS,
    ids=[
        f"{k}-{'coupled' if c else 'decoupled'}-{'spec' if s else 'nonspec'}"
        f"-{'ras' if r else 'btb'}-{z}"
        for k, c, s, r, z in _ORGANISATIONS
    ],
)
@settings(max_examples=25, deadline=None)
@given(steps=_steps)
def test_unit_matches_reference(pht_kind, coupled, speculative, use_ras, size, steps):
    btb, pht, history, ras = _components(pht_kind, size, use_ras)
    unit = BranchUnit(
        btb=btb, pht=pht, history=history, coupled=coupled,
        speculative_btb_update=speculative, ras=ras,
    )
    btb, pht, history, ras = _components(pht_kind, size, use_ras)
    ref = ReferenceBranchUnit(btb, pht, history, coupled, speculative, ras)
    pending: list[tuple[int | None, int | None, bool, int]] = []
    for step in steps:
        if step[0] == "resolve":
            if pending:
                unit_index, ref_index, taken, pc = pending.pop(0)
                unit.resolve(unit_index, taken, pc)
                ref.resolve(ref_index, taken, pc=pc)
        elif step[0] == "peek":
            pc = BASE + 4 * step[1]
            assert unit.peek_direction(pc) == ref.peek_direction(pc)
            assert unit.peek_target(pc) == ref.peek_target(pc)
            continue
        else:
            site, kind_idx, taken, choice = step
            pc = BASE + 4 * site
            kind = _KINDS[kind_idx]
            fall = pc + 4
            static_target = None
            if kind in (InstrKind.RETURN, InstrKind.INDIRECT_CALL):
                # Dynamic targets: a few candidates so BTB/RAS targets go stale.
                taken = True
                actual = BASE + 0x400 + 4 * choice
            else:
                static_target = BASE + 0x200 + 4 * ((site * 7 + 3) % N_SITES)
                if kind is not InstrKind.COND_BRANCH:
                    taken = True
                actual = static_target if taken else fall
            got = unit.predict(pc, kind, static_target, taken, actual, fall)
            want = ref.predict(pc, kind, static_target, taken, actual, fall)
            assert tuple(got) == want
            if kind is InstrKind.CALL:
                unit.notify_call(fall)
                ref.notify_call(fall)
            if kind is InstrKind.COND_BRANCH:
                pending.append((got.pht_index, want[6], taken, pc))
        assert _state(unit) == _state(ref)
    while pending:
        unit_index, ref_index, taken, pc = pending.pop(0)
        unit.resolve(unit_index, taken, pc)
        ref.resolve(ref_index, taken, pc=pc)
    assert _state(unit) == _state(ref)

"""Branch unit: misfetch/mispredict classification semantics."""

import pytest

from repro.branch import (
    MISFETCH_PENALTY_SLOTS,
    MISPREDICT_PENALTY_SLOTS,
    BranchUnit,
    FetchOutcome,
    PenaltyCause,
    PredictionResult,
    make_paper_branch_unit,
)
from repro.errors import ConfigError, SimulationError
from repro.isa import InstrKind

PC = 0x1000
TARGET = 0x2000
FALL = PC + 4


@pytest.fixture()
def unit() -> BranchUnit:
    return make_paper_branch_unit()


def train_taken(unit, times=16):
    """Train the PHT (and populate the BTB) for a taken branch at PC.

    Each resolution shifts a 1 into the history, so after ``history.bits``
    iterations the register saturates at all-ones and subsequent
    predictions index a stable, fully trained counter.
    """
    for _ in range(times):
        result = unit.predict(
            PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL
        )
        unit.resolve(result.pht_index, True, pc=PC)


class TestConditional:
    def test_fresh_not_taken_correct(self, unit):
        """Untrained PHT predicts NT; an actually-NT branch is free."""
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        assert result.outcome is FetchOutcome.CORRECT
        assert result.penalty_slots == 0

    def test_fresh_taken_is_mispredict(self, unit):
        """Untrained PHT predicts NT; an actually-taken branch costs 16."""
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.cause is PenaltyCause.PHT_MISPREDICT
        assert result.penalty_slots == MISPREDICT_PENALTY_SLOTS
        # Predicted NT: the wrong path is the fall-through, full window.
        assert result.wrong_path_start == FALL
        assert result.wrong_path_delay == 0
        assert result.wrong_path_slots == MISPREDICT_PENALTY_SLOTS

    def test_trained_taken_btb_hit_correct(self, unit):
        train_taken(unit)
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT

    def test_predicted_taken_btb_miss_is_misfetch(self, unit):
        """PHT says taken but the BTB has no target: 2-cycle misfetch."""
        train_taken(unit)
        # Evict the branch from the BTB without touching the PHT.
        unit.btb.reset()
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.MISFETCH
        assert result.cause is PenaltyCause.BTB_MISFETCH
        assert result.penalty_slots == MISFETCH_PENALTY_SLOTS
        # Wrong path: fall-through fetched until decode.
        assert result.wrong_path_start == FALL
        assert result.wrong_path_slots == MISFETCH_PENALTY_SLOTS

    def test_predicted_taken_actually_not_btb_hit(self, unit):
        """Direction mispredict with a BTB target: wrong path = target."""
        train_taken(unit)
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.penalty_slots == MISPREDICT_PENALTY_SLOTS
        assert result.wrong_path_start == TARGET
        assert result.wrong_path_delay == 0

    def test_composite_misfetch_then_mispredict(self, unit):
        """BTB miss + predicted taken + actually NT: delayed wrong path."""
        train_taken(unit)
        unit.btb.reset()
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.penalty_slots == MISPREDICT_PENALTY_SLOTS
        assert result.wrong_path_start == TARGET
        assert result.wrong_path_delay == MISFETCH_PENALTY_SLOTS
        assert result.wrong_path_slots == (
            MISPREDICT_PENALTY_SLOTS - MISFETCH_PENALTY_SLOTS
        )

    def test_speculative_btb_insert_on_predicted_taken(self, unit):
        train_taken(unit, times=2)
        assert unit.btb.peek(PC) is not None

    def test_missing_static_target_rejected(self, unit):
        with pytest.raises(SimulationError):
            unit.predict(PC, InstrKind.COND_BRANCH, None, True, TARGET, FALL)

    def test_plain_rejected(self, unit):
        with pytest.raises(SimulationError):
            unit.predict(PC, InstrKind.PLAIN, None, False, FALL, FALL)


class TestDirectTransfers:
    def test_first_jump_is_misfetch(self, unit):
        result = unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.MISFETCH
        assert result.penalty_slots == MISFETCH_PENALTY_SLOTS

    def test_second_jump_hits(self, unit):
        unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)
        result = unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT

    def test_call_behaves_like_jump(self, unit):
        unit.predict(PC, InstrKind.CALL, TARGET, True, TARGET, FALL)
        result = unit.predict(PC, InstrKind.CALL, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT


class TestDynamicTargets:
    def test_first_return_is_misfetch(self, unit):
        result = unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.MISFETCH

    def test_repeated_return_same_target_hits(self, unit):
        unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        result = unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT

    def test_return_changed_target_is_btb_mispredict(self, unit):
        unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        other = 0x3000
        result = unit.predict(PC, InstrKind.RETURN, None, True, other, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.cause is PenaltyCause.BTB_MISPREDICT
        # The wrong path is the stale predicted target.
        assert result.wrong_path_start == TARGET

    def test_ras_predicts_returns(self):
        unit = make_paper_branch_unit(use_ras=True)
        unit.notify_call(TARGET)  # call pushes its return address
        result = unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT

    def test_indirect_changed_target_mispredicts(self, unit):
        unit.predict(PC, InstrKind.INDIRECT_CALL, None, True, TARGET, FALL)
        result = unit.predict(PC, InstrKind.INDIRECT_CALL, None, True, 0x3000, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.cause is PenaltyCause.BTB_MISPREDICT


class TestResolution:
    def test_resolution_updates_history(self, unit):
        before = unit.history.snapshot()
        unit.resolve(None, True, pc=PC)
        assert unit.history.snapshot() == ((before << 1) | 1) & unit.history.mask

    def test_prediction_uses_stale_history(self, unit):
        """Predictions between fetch and resolve see unchanged history."""
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        snapshot = unit.history.snapshot()
        # Another prediction before resolution: history unchanged.
        unit.predict(PC + 8, InstrKind.COND_BRANCH, TARGET, False, FALL + 8, FALL + 8)
        assert unit.history.snapshot() == snapshot
        unit.resolve(result.pht_index, True, pc=PC)
        assert unit.history.snapshot() != snapshot


class TestCoupled:
    def test_coupled_uses_btb_counter(self):
        unit = make_paper_branch_unit(coupled=True)
        # Untrained coupled design: BTB miss -> static not-taken.
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        assert result.outcome is FetchOutcome.CORRECT
        assert result.pht_index is None

    def test_coupled_resolves_into_btb(self):
        unit = make_paper_branch_unit(coupled=True)
        # Force an entry (mispredicted taken), then train its counter.
        unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        unit.resolve(None, True, pc=PC)
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT


class TestStats:
    def test_penalty_accounting(self, unit):
        unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)  # misfetch
        unit.predict(PC + 8, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL + 8)
        stats = unit.stats
        assert stats.btb_misfetches == 1
        assert stats.pht_mispredicts == 1
        assert stats.penalty_slots_by_cause["btb_misfetch"] == MISFETCH_PENALTY_SLOTS
        assert (
            stats.penalty_slots_by_cause["pht_mispredict"]
            == MISPREDICT_PENALTY_SLOTS
        )

    def test_reset(self, unit):
        unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)
        unit.reset()
        assert unit.stats.btb_misfetches == 0
        assert unit.btb.peek(PC) is None

    def test_reset_predicts_like_a_fresh_unit(self, unit):
        """Resetting the PHT (also directly) must reach the counters the
        unit's inline predict and resolve read."""
        train_taken(unit)
        unit.reset()
        fresh = make_paper_branch_unit()
        for other in (unit, fresh):
            train_taken(other, times=3)
        assert unit.pht.table.values == fresh.pht.table.values
        unit.pht.reset()
        args = (PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        assert not unit.predict(*args).predicted_taken


class TestResultObjects:
    def test_correct_result_is_interned(self, unit):
        """Same (pht_index, predicted_taken): the very same object."""
        first = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        second = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        assert first.outcome is FetchOutcome.CORRECT
        assert second is first
        jump = unit.predict(PC + 8, InstrKind.JUMP, TARGET, True, TARGET, FALL + 8)
        assert jump.outcome is FetchOutcome.MISFETCH
        hit = unit.predict(PC + 8, InstrKind.JUMP, TARGET, True, TARGET, FALL + 8)
        again = unit.predict(PC + 8, InstrKind.JUMP, TARGET, True, TARGET, FALL + 8)
        assert hit.outcome is FetchOutcome.CORRECT
        assert again is hit
        assert (hit.pht_index, hit.predicted_taken) == (None, None)

    @pytest.mark.parametrize("taken", [False, True])
    def test_results_are_read_only(self, unit, taken):
        """Interned correct results and fresh mispredicts alike reject
        assignment to every field."""
        actual = TARGET if taken else FALL
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, taken, actual, FALL)
        assert result.outcome is (
            FetchOutcome.MISPREDICT if taken else FetchOutcome.CORRECT
        )
        for name in PredictionResult._fields:
            with pytest.raises(AttributeError):
                setattr(result, name, getattr(result, name))


class TestConfigValidation:
    def test_bad_penalties(self):
        from repro.branch import BranchTargetBuffer, GlobalHistory, GsharePHT

        with pytest.raises(ConfigError):
            BranchUnit(
                btb=BranchTargetBuffer(),
                pht=GsharePHT(512),
                history=GlobalHistory(9),
                misfetch_penalty_slots=16,
                mispredict_penalty_slots=8,
            )

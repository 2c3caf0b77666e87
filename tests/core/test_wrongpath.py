"""Wrong-path walker (static path enumeration)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import make_paper_branch_unit
from repro.core.wrongpath import (
    iter_lines_from_runs,
    iter_wrong_path_lines,
    iter_wrong_path_runs,
)
from repro.isa import INSTRUCTION_SIZE, Instruction, InstrKind
from repro.program import CodeImage

BASE = 0x1000  # line 128 with 32-byte lines
LINE = BASE // 32


def image_with(*kinds_targets):
    listing = []
    for i, (kind, target) in enumerate(kinds_targets):
        listing.append(
            Instruction(
                BASE + 4 * i,
                kind,
                target=target,
                behaviour=0 if kind is InstrKind.COND_BRANCH else None,
            )
        )
    return CodeImage.from_instructions(listing)


def plain(n):
    return [(InstrKind.PLAIN, None)] * n


@pytest.fixture()
def unit():
    return make_paper_branch_unit()


class TestStraightLine:
    def test_single_line_span(self, unit):
        image = image_with(*plain(8))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 8, 32))
        assert spans == [(LINE, 8)]

    def test_crosses_lines(self, unit):
        image = image_with(*plain(20))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 20, 32))
        assert spans == [(LINE, 8), (LINE + 1, 8), (LINE + 2, 4)]

    def test_max_instructions_respected(self, unit):
        image = image_with(*plain(20))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 10, 32))
        assert sum(n for _, n in spans) == 10

    def test_stops_at_image_end(self, unit):
        image = image_with(*plain(4))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 100, 32))
        assert sum(n for _, n in spans) == 4

    def test_unaligned_start_pc_stops(self, unit):
        image = image_with(*plain(8))
        assert list(iter_wrong_path_lines(image, unit, BASE + 2, 8, 32)) == []

    def test_zero_budget(self, unit):
        image = image_with(*plain(8))
        assert list(iter_wrong_path_lines(image, unit, BASE, 0, 32)) == []


class TestControlFollowing:
    def test_jump_followed(self, unit):
        # jump at BASE to BASE+64 (line +2).
        image = image_with(
            (InstrKind.JUMP, BASE + 64),
            *plain(15),
            *plain(4),
        )
        spans = list(iter_wrong_path_lines(image, unit, BASE, 5, 32))
        assert spans[0] == (LINE, 1)
        assert spans[1] == (LINE + 2, 4)

    def test_untrained_cond_falls_through(self, unit):
        image = image_with(
            (InstrKind.COND_BRANCH, BASE + 64),
            *plain(17),
        )
        spans = list(iter_wrong_path_lines(image, unit, BASE, 4, 32))
        # Fresh PHT predicts not-taken: sequential walk.  The run splits
        # at the control instruction, staying on the same line.
        assert spans == [(LINE, 1), (LINE, 3)]

    def test_trained_cond_follows_target(self, unit):
        target = BASE + 64
        image = image_with(
            (InstrKind.COND_BRANCH, target),
            *plain(19),
        )
        # Train the PHT (at the current, all-zero history context).
        idx = unit.pht.index(BASE, unit.history.snapshot())
        unit.pht.update(idx, True)
        unit.pht.update(idx, True)
        spans = list(iter_wrong_path_lines(image, unit, BASE, 4, 32))
        assert spans[0] == (LINE, 1)
        assert spans[1] == (LINE + 2, 3)

    def test_return_without_btb_falls_through(self, unit):
        image = image_with((InstrKind.RETURN, None), *plain(7))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 4, 32))
        assert spans == [(LINE, 1), (LINE, 3)]

    def test_return_with_btb_target(self, unit):
        image = image_with((InstrKind.RETURN, None), *plain(19))
        unit.btb.insert(BASE, BASE + 64)
        spans = list(iter_wrong_path_lines(image, unit, BASE, 4, 32))
        assert spans[0] == (LINE, 1)
        assert spans[1] == (LINE + 2, 3)

    def test_walk_does_not_mutate_predictors(self, unit):
        image = image_with(
            (InstrKind.COND_BRANCH, BASE + 32),
            (InstrKind.RETURN, None),
            *plain(14),
        )
        unit.btb.insert(BASE + 4, BASE + 32)
        hits_before = unit.btb.hits
        values_before = list(unit.pht.table.values)
        list(iter_wrong_path_lines(image, unit, BASE, 16, 32))
        assert unit.btb.hits == hits_before
        assert unit.pht.table.values == values_before


def _reference_lines(image, unit, start_pc, max_instructions, line_size):
    """The walker as a lazy generator chain: follow transfers with the
    unit's read-only peeks, then split each run at line boundaries."""
    base, n_image = image.base, image.n_instructions
    pc, remaining = start_pc, max_instructions
    while remaining > 0:
        offset = pc - base
        idx = offset // INSTRUCTION_SIZE
        if offset < 0 or offset % INSTRUCTION_SIZE or idx >= n_image:
            return
        ctrl = image.next_ctrl_list[idx]
        run = (n_image if ctrl >= n_image else ctrl + 1) - idx
        take = min(run, remaining)
        pos, left = idx + base // INSTRUCTION_SIZE, take
        per_line = line_size // INSTRUCTION_SIZE
        while left > 0:
            chunk = min(per_line - pos % per_line, left)
            yield (pos * INSTRUCTION_SIZE) // line_size, chunk
            pos += chunk
            left -= chunk
        remaining -= take
        if take < run or ctrl >= n_image:
            return
        kind = image.kinds_list[ctrl]
        ctrl_addr = base + ctrl * INSTRUCTION_SIZE
        fall = ctrl_addr + INSTRUCTION_SIZE
        if kind == InstrKind.COND_BRANCH:
            taken = unit.peek_direction(ctrl_addr)
            pc = image.targets_list[ctrl] if taken else fall
        elif kind in (InstrKind.JUMP, InstrKind.CALL):
            pc = image.targets_list[ctrl]
        else:
            predicted = None
            if kind == InstrKind.RETURN and unit.ras is not None:
                predicted = unit.ras.peek()
            if predicted is None:
                predicted = unit.peek_target(ctrl_addr)
            pc = fall if predicted is None else predicted


@pytest.fixture(scope="module")
def trained_units(gcc_run):
    """Paper branch units (with and without a RAS) trained on growing
    prefixes of the gcc trace, so walks see live predictor state."""
    program, trace = gcc_run.program, gcc_run.trace
    image = program.image
    units = []
    for use_ras in (False, True):
        unit = make_paper_branch_unit(use_ras=use_ras)
        units.append(copy.deepcopy(unit))
        for i, (start, length, kind, taken, next_pc) in enumerate(trace.records):
            if kind == InstrKind.PLAIN:
                continue
            pc = start + (length - 1) * INSTRUCTION_SIZE
            raw = image.targets_list[(pc - image.base) // INSTRUCTION_SIZE]
            result = unit.predict(
                pc, InstrKind(kind), None if raw < 0 else raw, taken, next_pc,
                pc + INSTRUCTION_SIZE,
            )
            if kind == InstrKind.CALL:
                unit.notify_call(pc + INSTRUCTION_SIZE)
            if kind == InstrKind.COND_BRANCH:
                unit.resolve(result.pht_index, taken, pc)
            if i in (200, 3000):
                units.append(copy.deepcopy(unit))
    return image, units


class TestListWalker:
    @settings(max_examples=300, deadline=None)
    @given(
        which=st.integers(0, 5),
        near=st.sampled_from((None, InstrKind.COND_BRANCH, InstrKind.RETURN)),
        offset=st.integers(-64, 64),
        anchor=st.floats(0.0, 1.0, exclude_max=True),
        budget=st.integers(0, 40),
        line_size=st.sampled_from((16, 32, 64)),
    )
    def test_matches_generator_chain(
        self, trained_units, which, near, offset, anchor, budget, line_size
    ):
        image, units = trained_units
        unit = units[which]
        # Anchor anywhere in the image, or a little before a branch or
        # return so that walks reach them; the offset also reaches
        # misaligned and off-image starts on either side.
        sites = range(image.n_instructions)
        if near is not None:
            sites = [i for i in sites if image.kinds_list[i] == near]
        start_pc = image.base + INSTRUCTION_SIZE * sites[
            int(anchor * len(sites))
        ] + (offset if near is None else -abs(offset) // 2)
        lines = iter_wrong_path_lines(image, unit, start_pc, budget, line_size)
        runs = iter_wrong_path_runs(image, unit, start_pc, budget)
        assert isinstance(lines, list) and isinstance(runs, list)
        assert lines == list(iter_lines_from_runs(runs, line_size))
        assert lines == list(
            _reference_lines(image, unit, start_pc, budget, line_size)
        )
        assert sum(n for _, n in lines) <= budget


@pytest.fixture(scope="module")
def second_image(runner):
    """Another workload's image: same code base address, other code, so
    its segments share ``(pc, budget)`` keys with gcc's."""
    return runner.prepared("li").program.image


class TestSegmentMemo:
    """Walks are assembled from static segments memoized per (image,
    line size) and shared by every walk; they must never carry one
    predictor's choices into another walk, or one image's code into
    another's."""

    @settings(max_examples=150, deadline=None)
    @given(
        walks=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 1),
                st.floats(0.0, 1.0, exclude_max=True),
                st.integers(-8, 8),
                st.integers(0, 40),
                st.sampled_from((16, 32, 64)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_shared_memo_matches_reference(
        self, trained_units, second_image, walks
    ):
        image, units = trained_units
        images = (image, second_image)
        for which, pick, anchor, offset, budget, line_size in walks:
            walked = images[pick]
            start_pc = (
                walked.base
                + INSTRUCTION_SIZE * int(anchor * walked.n_instructions)
                + offset
            )
            unit = units[which]
            lines = iter_wrong_path_lines(walked, unit, start_pc, budget, line_size)
            assert isinstance(lines, list)
            assert lines == list(
                _reference_lines(walked, unit, start_pc, budget, line_size)
            )

    def test_units_disagree_through_one_memo(self, trained_units):
        """Two units walking from one start through one warm memo each
        follow their own predictions."""
        image, units = trained_units
        for i, kind in enumerate(image.kinds_list):
            pc = image.base + INSTRUCTION_SIZE * i
            if kind == InstrKind.COND_BRANCH and units[0].peek_direction(
                pc
            ) != units[5].peek_direction(pc):
                break
        else:  # pragma: no cover - the trained units must differ somewhere
            pytest.fail("no conditional where the units disagree")
        walks = [
            iter_wrong_path_lines(image, unit, pc, 16, 32)
            for unit in (units[0], units[5], units[0])
        ]
        assert walks[0] != walks[1]
        assert walks[0] == walks[2]
        for unit, lines in zip((units[0], units[5]), walks):
            assert lines == list(_reference_lines(image, unit, pc, 16, 32))

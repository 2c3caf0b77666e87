"""Text trace interchange format."""

import pytest

from repro.errors import TraceError
from repro.trace import BlockRecord, generate_trace
from repro.trace.text_format import (
    load_text_trace,
    parse_text_trace,
    save_text_trace,
)
from tests.conftest import make_loop_program

HEADER = "# repro-trace v1"


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        program = make_loop_program()
        trace = generate_trace(program, 1_000, seed=4)
        path = tmp_path / "trace.txt"
        save_text_trace(trace, path)
        loaded = load_text_trace(path)
        assert loaded.records == trace.records
        assert loaded.program_name == trace.program_name
        assert loaded.seed == 4

    def test_file_is_human_readable(self, tmp_path):
        program = make_loop_program()
        trace = generate_trace(program, 200, seed=0)
        path = tmp_path / "trace.txt"
        save_text_trace(trace, path)
        text = path.read_text()
        assert text.startswith(HEADER)
        assert "COND_BRANCH" in text
        assert "# program: toyloop" in text


class TestParsing:
    def test_minimal_external_trace(self):
        lines = [
            HEADER,
            "0x00001000 4 JUMP T 0x00001000",
            "0x00001000 4 JUMP T 0x00001000",
        ]
        trace = parse_text_trace(lines)
        assert trace.n_blocks == 2
        assert trace.n_instructions == 8
        assert trace.program_name == "external"

    def test_comments_and_blanks_ignored(self):
        lines = [
            HEADER,
            "",
            "# a comment",
            "0x00001000 2 RETURN T 0x00002000",
            "0x00002000 1 JUMP T 0x00001000",
        ]
        assert parse_text_trace(lines).n_blocks == 2

    def test_program_name_from_comment(self):
        lines = [
            HEADER,
            "# program: spice",
            "0x00001000 1 JUMP T 0x00001000",
        ]
        assert parse_text_trace(lines).program_name == "spice"

    def test_missing_header(self):
        with pytest.raises(TraceError, match="header"):
            parse_text_trace(["0x00001000 1 JUMP T 0x00001000"])

    def test_wrong_field_count(self):
        with pytest.raises(TraceError, match="5 fields"):
            parse_text_trace([HEADER, "0x1000 1 JUMP T"])

    def test_bad_kind(self):
        with pytest.raises(TraceError, match="unknown instruction kind"):
            parse_text_trace([HEADER, "0x00001000 1 HOP T 0x00001000"])

    def test_bad_direction(self):
        with pytest.raises(TraceError, match="direction"):
            parse_text_trace([HEADER, "0x00001000 1 JUMP X 0x00001000"])

    def test_bad_number(self):
        with pytest.raises(TraceError, match="bad number"):
            parse_text_trace([HEADER, "zzz 1 JUMP T 0x00001000"])

    def test_record_invariants_enforced(self):
        # Not-taken branch whose next PC is not the fall-through.
        with pytest.raises(TraceError):
            parse_text_trace(
                [HEADER, "0x00001000 2 COND_BRANCH N 0x00009000"]
            )

    def test_bad_record_names_its_first_line(self):
        lines = [
            HEADER,
            "0x00001000 1 JUMP T 0x00002000",
            "0x00002000 2 COND_BRANCH N 0x00009000",  # not the fall-through
            "0x00009000 1 JUMP T 0x00001000",
            "0x00002000 2 COND_BRANCH N 0x00009000",
        ]
        with pytest.raises(TraceError, match=r"^line 3: not-taken branch"):
            parse_text_trace(lines)

    def test_each_distinct_record_validated_once(self, monkeypatch):
        calls = []
        original = BlockRecord.validate

        def counting(record):
            calls.append(record)
            original(record)

        monkeypatch.setattr(BlockRecord, "validate", counting)
        loop = [
            "0x00001000 2 COND_BRANCH T 0x00001000",
        ] * 5 + [
            "0x00001000 2 COND_BRANCH N 0x00001008",
            "0x00001008 1 JUMP T 0x00001000",
        ]
        trace = parse_text_trace([HEADER, *loop, *loop])
        assert trace.n_blocks == 14
        assert sorted(calls) == sorted(set(trace.records))
        assert len(calls) == 3

    def test_continuity_enforced(self):
        with pytest.raises(TraceError):
            parse_text_trace(
                [
                    HEADER,
                    "0x00001000 1 JUMP T 0x00002000",
                    "0x00003000 1 JUMP T 0x00001000",  # discontinuity
                ]
            )

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError, match="no records"):
            parse_text_trace([HEADER, "# nothing"])


class TestEngineReplay:
    def test_external_trace_replays_through_engine(self, tmp_path):
        """An exported trace replays identically to the original."""
        from repro.config import FetchPolicy, SimConfig
        from repro.core.engine import simulate

        program = make_loop_program()
        trace = generate_trace(program, 2_000, seed=1)
        path = tmp_path / "t.txt"
        save_text_trace(trace, path)
        replayed = load_text_trace(path)
        config = SimConfig(policy=FetchPolicy.RESUME)
        original = simulate(program, trace, config)
        again = simulate(program, replayed, config)
        assert original.penalties.as_dict() == again.penalties.as_dict()

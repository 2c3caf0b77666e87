"""Typed events, sinks, and JSONL round-tripping."""

import io

import pytest

from repro.core.results import COMPONENTS
from repro.errors import ObservabilityError
from repro.obs.events import (
    EVENT_TYPES,
    STALL_CAUSES,
    EventSink,
    FetchStall,
    FillInstall,
    JsonlSink,
    MissService,
    NullSink,
    PolicySwitch,
    PrefetchIssue,
    Redirect,
    RingBufferSink,
    ServiceIncident,
    StreamBuild,
    SweepIncident,
    event_from_dict,
    event_to_dict,
    read_jsonl_events,
)

SAMPLES = (
    FetchStall(t=10, cause="rt_icache", slots=20, line=3),
    FetchStall(t=0, cause="branch", slots=8),
    MissService(t=5, line=7, path="right", start=5, done=25),
    Redirect(t=9, pc=4096, outcome="mispredict", cause="pht_mispredict", penalty_slots=16),
    PrefetchIssue(t=2, line=8, kind="next_line", done=22),
    FillInstall(t=30, line=8, origin="prefetch"),
    SweepIncident(t=0, benchmark="li", kind="retry", detail="InjectedFault", attempt=1),
    ServiceIncident(t=0, client="alice", kind="timeout", benchmark="li", attempt=2),
    StreamBuild(t=0, benchmark="gcc", records=412, source="cache"),
    PolicySwitch(t=4096, interval=3, previous="resume", policy="optimistic"),
)


class TestEventTypes:
    def test_stall_causes_mirror_ispi_components(self):
        assert STALL_CAUSES == COMPONENTS

    def test_registry_covers_all_classes(self):
        assert set(EVENT_TYPES) == {type(e).__name__ for e in SAMPLES}

    def test_events_are_frozen(self):
        with pytest.raises(AttributeError):
            SAMPLES[0].slots = 99

    def test_dict_roundtrip(self):
        for event in SAMPLES:
            assert event_from_dict(event_to_dict(event)) == event

    def test_dict_carries_type_discriminator(self):
        assert event_to_dict(SAMPLES[2])["type"] == "MissService"


class TestNullSink:
    def test_disabled(self):
        assert NullSink.enabled is False

    def test_satisfies_protocol(self):
        assert isinstance(NullSink(), EventSink)
        assert isinstance(RingBufferSink(), EventSink)

    def test_emit_is_a_noop(self):
        sink = NullSink()
        sink.emit(SAMPLES[0])
        sink.close()
        assert sink.emitted == 0


class TestRingBufferSink:
    def test_keeps_events_in_order(self):
        sink = RingBufferSink(capacity=len(SAMPLES))
        for event in SAMPLES:
            sink.emit(event)
        assert sink.events() == list(SAMPLES)
        assert sink.emitted == len(SAMPLES)
        assert sink.dropped == 0

    def test_bounded(self):
        sink = RingBufferSink(capacity=2)
        for event in SAMPLES:
            sink.emit(event)
        assert len(sink) == 2
        assert sink.events() == list(SAMPLES[-2:])
        assert sink.dropped == len(SAMPLES) - 2

    def test_of_type(self):
        sink = RingBufferSink()
        for event in SAMPLES:
            sink.emit(event)
        stalls = sink.of_type(FetchStall)
        assert stalls == [SAMPLES[0], SAMPLES[1]]

    def test_bad_capacity(self):
        with pytest.raises(ObservabilityError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_writes_one_line_per_event(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        for event in SAMPLES:
            sink.emit(event)
        sink.close()  # does not own the handle: must stay open
        lines = buffer.getvalue().splitlines()
        assert len(lines) == len(SAMPLES)
        assert sink.emitted == len(SAMPLES)

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with JsonlSink(path) as sink:
            for event in SAMPLES:
                sink.emit(event)
        assert read_jsonl_events(path) == list(SAMPLES)

    def test_close_owned_handle(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        sink.emit(SAMPLES[0])
        sink.close()
        sink.close()  # idempotent
        assert read_jsonl_events(path) == [SAMPLES[0]]

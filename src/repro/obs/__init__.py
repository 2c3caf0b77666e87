"""Observability: metrics, cycle-level event tracing, and profiling.

See ``docs/observability.md`` for the event taxonomy, metric names, and
the invariants the test suite enforces over them.
"""

from repro.obs.events import (
    EVENT_TYPES,
    INCIDENT_KINDS,
    SERVICE_INCIDENT_KINDS,
    STALL_CAUSES,
    Event,
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
    SweepIncident,
    event_from_dict,
    event_to_dict,
    read_jsonl_events,
)
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import Observer
from repro.obs.profile import PhaseProfiler

__all__ = [
    "Counter",
    "DEFAULT_BOUNDS",
    "EVENT_TYPES",
    "Event",
    "INCIDENT_KINDS",
    "EventSink",
    "FetchStall",
    "FillInstall",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "MissService",
    "NullSink",
    "Observer",
    "PhaseProfiler",
    "PolicySwitch",
    "PrefetchIssue",
    "Redirect",
    "RingBufferSink",
    "SERVICE_INCIDENT_KINDS",
    "STALL_CAUSES",
    "ServiceIncident",
    "SweepIncident",
    "event_from_dict",
    "event_to_dict",
    "read_jsonl_events",
]

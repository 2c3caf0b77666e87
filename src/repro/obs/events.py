"""Typed cycle-level events and the pluggable sinks that receive them.

The engine narrates a run as a stream of small frozen dataclasses, each
stamped with the issue-slot time ``t`` at which it happened:

* :class:`FetchStall`   — fetch lost ``slots`` issue slots to ``cause``
  (one of :data:`STALL_CAUSES`, the ISPI components);
* :class:`MissService`  — a line fill request occupied the channel from
  ``start`` to ``done`` (right- or wrong-path);
* :class:`Redirect`     — a misfetch/mispredict redirect with its blame
  category and penalty;
* :class:`PrefetchIssue`— a next-line or target prefetch left for memory;
* :class:`FillInstall`  — a background fill left the fill station and was
  written into the I-cache.

Sinks implement the tiny :class:`EventSink` protocol.  The
:class:`NullSink` advertises ``enabled = False``, which the engine uses
to skip event *construction* entirely — the null-sink path costs one
pointer test per already-rare stall site, keeping the instrumented engine
within noise of the uninstrumented one.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from typing import IO, Iterator, Protocol, runtime_checkable

#: Stall causes, mirroring the ISPI components of
#: :data:`repro.core.results.COMPONENTS`.
STALL_CAUSES = (
    "branch_full",
    "branch",
    "rt_icache",
    "wrong_icache",
    "bus",
    "force_resolve",
)


@dataclass(frozen=True, slots=True)
class FetchStall:
    """Fetch lost *slots* issue slots at time *t*, charged to *cause*."""

    t: int
    cause: str
    slots: int
    line: int = -1  # cache line involved, -1 when not line-related


@dataclass(frozen=True, slots=True)
class MissService:
    """A demand line fill occupied the memory channel."""

    t: int
    line: int
    path: str  # "right" | "wrong"
    start: int
    done: int


@dataclass(frozen=True, slots=True)
class Redirect:
    """A control transfer was mishandled and fetch was redirected."""

    t: int
    pc: int
    outcome: str  # "misfetch" | "mispredict"
    cause: str  # "btb_misfetch" | "pht_mispredict" | "btb_mispredict"
    penalty_slots: int


@dataclass(frozen=True, slots=True)
class PrefetchIssue:
    """A prefetch request left for memory."""

    t: int
    line: int
    kind: str  # "next_line" | "target"
    done: int


@dataclass(frozen=True, slots=True)
class FillInstall:
    """A background fill was drained from the station into the cache."""

    t: int
    line: int
    origin: str  # FillOrigin value


#: Sweep-incident kinds emitted by the fault-tolerant runners.
INCIDENT_KINDS = (
    "retry",
    "timeout",
    "skip",
    "checkpoint_hit",
    "cache_store_failure",
    "fault_injected",
)


@dataclass(frozen=True, slots=True)
class SweepIncident:
    """The fault-tolerance layer acted on a sweep cell/batch.

    Sweep-level rather than cycle-level: ``t`` is always 0 (incidents
    happen between simulations, not inside them).  ``kind`` is one of
    :data:`INCIDENT_KINDS`; ``attempt`` counts the failed attempts so far
    for retry/timeout/skip incidents.
    """

    t: int
    benchmark: str
    kind: str
    detail: str = ""
    attempt: int = 0


@dataclass(frozen=True, slots=True)
class StreamBuild:
    """A prediction stream was produced for one benchmark.

    Sweep-level (``t`` is always 0): streams are built or loaded between
    simulations.  ``source`` is ``"build"`` (computed by running the live
    predictor) or ``"cache"`` (loaded from the artifact cache);
    ``records`` counts the recorded control transfers.
    """

    t: int
    benchmark: str
    records: int
    source: str = "build"
    digest: str = ""


@dataclass(frozen=True, slots=True)
class PolicySwitch:
    """The engine changed fetch policy at an interval boundary.

    Emitted by the per-interval policy schedules (``t`` is the issue-slot
    time of the boundary, ``interval`` the index of the interval that now
    begins under ``policy``).
    """

    t: int
    interval: int
    previous: str  # FetchPolicy value
    policy: str  # FetchPolicy value


#: Service-incident kinds emitted by the sweep service (:mod:`repro.service`).
SERVICE_INCIDENT_KINDS = (
    "request",
    "reject",
    "dedup",
    "retry",
    "timeout",
    "failure",
    "recovered",
    "response_fault",
)


@dataclass(frozen=True, slots=True)
class ServiceIncident:
    """The sweep service acted on a request or an in-flight cell.

    Service-level rather than cycle-level: ``t`` is always 0.  ``kind``
    is one of :data:`SERVICE_INCIDENT_KINDS`; ``client`` names the
    requesting tenant (``"__recovery__"`` for journal replays),
    ``benchmark`` the affected cell for cell-scoped kinds, and
    ``attempt`` counts failed attempts for retry/timeout incidents.
    """

    t: int
    client: str
    kind: str
    benchmark: str = ""
    detail: str = ""
    attempt: int = 0


Event = (
    FetchStall | MissService | Redirect | PrefetchIssue | FillInstall
    | SweepIncident | StreamBuild | PolicySwitch | ServiceIncident
)

#: Event classes by their serialised ``type`` name.
EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        FetchStall, MissService, Redirect, PrefetchIssue, FillInstall,
        SweepIncident, StreamBuild, PolicySwitch, ServiceIncident,
    )
}


def event_to_dict(event: Event) -> dict[str, object]:
    """Serialise one event to a plain dict with a ``type`` discriminator."""
    payload: dict[str, object] = {"type": type(event).__name__}
    payload.update(asdict(event))
    return payload


def event_from_dict(data: dict[str, object]) -> Event:
    """Rebuild an event from :func:`event_to_dict` output."""
    data = dict(data)
    cls = EVENT_TYPES[str(data.pop("type"))]
    return cls(**data)


@runtime_checkable
class EventSink(Protocol):
    """Anything that can receive the engine's typed event stream."""

    #: When False, producers skip event construction entirely.
    enabled: bool
    #: Events emitted so far (kept even by bounded sinks).
    emitted: int

    def emit(self, event: Event) -> None: ...

    def close(self) -> None: ...


class NullSink:
    """Discards everything; the zero-overhead default."""

    __slots__ = ("emitted",)
    enabled = False

    def __init__(self) -> None:
        self.emitted = 0

    def emit(self, event: Event) -> None:  # pragma: no cover - never called
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the most recent *capacity* events in memory."""

    enabled = True

    __slots__ = ("capacity", "emitted", "_buffer")

    def __init__(self, capacity: int = 65536) -> None:
        from repro.errors import ObservabilityError

        if capacity < 1:
            raise ObservabilityError(f"ring capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.emitted = 0
        self._buffer: deque[Event] = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        self.emitted += 1
        self._buffer.append(event)

    def events(self) -> list[Event]:
        """The retained events, oldest first."""
        return list(self._buffer)

    def of_type(self, event_type: type) -> list[Event]:
        """Retained events of one class, oldest first."""
        return [e for e in self._buffer if isinstance(e, event_type)]

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound."""
        return self.emitted - len(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._buffer)

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams every event as one JSON object per line."""

    enabled = True

    __slots__ = ("emitted", "_handle", "_owns_handle")

    def __init__(self, path_or_handle: str | IO[str]) -> None:
        if isinstance(path_or_handle, str):
            self._handle: IO[str] = open(path_or_handle, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = path_or_handle
            self._owns_handle = False
        self.emitted = 0

    def emit(self, event: Event) -> None:
        self._handle.write(json.dumps(event_to_dict(event), separators=(",", ":")))
        self._handle.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> JsonlSink:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl_events(path: str) -> list[Event]:
    """Load a JSONL event file back into typed events."""
    events: list[Event] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events

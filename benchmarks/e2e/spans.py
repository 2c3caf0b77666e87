"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: name, start, end, the span that
was open when it started (its parent, tracked per thread), and the cell
it served.  Spans stay in memory and are written out once, when the run
ends.  A layer's self time is the duration of its spans minus the part
of each covered by that span's children.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, cell: str | None = None, parent: int | None = None):
        """Time the body; *parent* defaults to this thread's open span
        (pass it explicitly for the first span of a new thread)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = len(self.spans)
            span = Span(span_id, name, 0.0, 0.0, parent, cell)
            self.spans.append(span)
        stack.append(span_id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict[int, float]:
        """Self time per span id: duration minus the union of its children."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.id] = span.duration - covered
        return result

    def layer_self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = {}
        for span_id, seconds in self.self_times().items():
            name = self.spans[span_id].name
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def totals(self) -> dict[str, float]:
        """Total (inclusive) duration per span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def write(self, path) -> None:
        self_times = self.self_times()
        payload = {
            "spans": [
                {**asdict(span), "self": self_times[span.id]}
                for span in self.spans
            ],
            "layers": self.layer_self_times(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")

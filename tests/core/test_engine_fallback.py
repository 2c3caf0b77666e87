"""Explicit vector-backend fallbacks are counted, loudly and identically.

Satellite of PR 7: an ``engine_backend="vector"`` cell that silently ran
the event loop used to be invisible.  ``build_engine`` now bumps
``engine.fallback_total`` plus a per-reason counter (and emits an
``EngineFallback`` event when a sink is enabled) — and the serial and
pooled runs must agree on every count.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core.engine import FALLBACK_COUNTERS
from repro.core.runner import SimulationRunner
from repro.obs import Observer, RingBufferSink
from repro.obs.events import EngineFallback

TRACE = 3_000

#: One cell per fallback reason, all requesting the vector backend:
#: * timing branch schedule -> never replay-eligible -> no stream
#: * architectural schedule + prefetch -> stream exists, cell ineligible
ARCH = SimConfig(
    policy=FetchPolicy.RESUME,
    branch_schedule="architectural",
    engine_backend="vector",
)
JOBS = [
    ("li", SimConfig(policy=FetchPolicy.RESUME, engine_backend="vector")),
    ("li", replace(ARCH, prefetch=True)),
    ("li", ARCH),  # eligible: vector runs, nothing counted
]


def _fallback_counts(registry) -> dict[str, int]:
    counts = {"engine.fallback_total": registry.value("engine.fallback_total")}
    for metric in FALLBACK_COUNTERS.values():
        counts[metric] = registry.value(metric)
    return counts


@pytest.fixture(scope="module")
def serial_counts():
    observer = Observer()
    runner = SimulationRunner(
        trace_length=TRACE, warmup=0, seed=9, observer=observer
    )
    for name, config in JOBS:
        runner.run(name, config)
    return _fallback_counts(observer.registry)


class TestFallbackCounters:
    def test_each_reason_counted_once(self, serial_counts):
        assert serial_counts["engine.fallback_total"] == 2
        assert serial_counts["engine.fallback.missing_stream"] == 1
        assert serial_counts["engine.fallback.ineligible_config"] == 1
        assert serial_counts["engine.fallback.event_sink"] == 0

    def test_auto_backend_never_counts(self):
        observer = Observer()
        runner = SimulationRunner(
            trace_length=TRACE, warmup=0, seed=9, observer=observer
        )
        # Same cells, but backend="auto": fallbacks are routine backend
        # selection, not a denied request, and must stay silent (the
        # golden-metrics surface and the live==replay invariant depend
        # on it).
        for name, config in JOBS:
            runner.run(name, replace(config, engine_backend="auto"))
        assert observer.registry.value("engine.fallback_total") == 0

    def test_serial_parallel_parity(self, serial_counts, plan_pool):
        observer = Observer()
        runner = SimulationRunner(
            trace_length=TRACE, warmup=0, seed=9, observer=observer
        )
        runner.run_jobs(JOBS)
        assert observer.registry.value("sweep.plan_tasks") == len(JOBS)
        assert _fallback_counts(observer.registry) == serial_counts

    def test_event_emitted_with_enabled_sink(self):
        sink = RingBufferSink()
        observer = Observer(sink=sink)
        runner = SimulationRunner(
            trace_length=TRACE, warmup=0, seed=9, observer=observer
        )
        runner.run("li", SimConfig(engine_backend="vector"))
        events = [e for e in sink.events() if isinstance(e, EngineFallback)]
        assert len(events) == 1
        assert events[0].requested == "vector"
        assert events[0].reason == "missing_stream"
        assert events[0].benchmark == "li"
        # An enabled sink also disqualifies the vector backend itself, so
        # an otherwise-eligible explicit cell reports reason=event_sink.
        runner.run("li", ARCH)
        events = [e for e in sink.events() if isinstance(e, EngineFallback)]
        assert [e.reason for e in events] == ["missing_stream", "event_sink"]
        assert observer.registry.value("engine.fallback.event_sink") == 1

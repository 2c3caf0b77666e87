"""Timing and counting hooks around the calls a workload makes into a layer.

Everything is installed from outside: a hook replaces an attribute (a
runner's or client's method, or a module-level function the runner
looks up at call time) with a wrapper that opens a span when
a :class:`~spans.SpanRecorder` is attached and forwards to the original.
Nothing under ``src/`` is modified.  Spans and per-layer counts exist
only in the traced run.
"""

from __future__ import annotations

import contextlib
import threading
from collections import Counter

from spans import SpanRecorder

#: VectorEngine probe-path attributes copied into ``vector.*`` counts.
VECTOR_PATHS = (
    "probes_scalar", "probes_bulk", "walk_probes_scalar", "walk_probes_bulk",
)

#: Simulated statistics summed into ``sim.*`` (EngineCounters fields).
SIM_COUNTERS = {
    "sim.instructions": "instructions",
    "sim.right_probes": "right_probes",
    "sim.right_misses": "right_misses",
    "sim.wrong_probes": "wrong_probes",
    "sim.wrong_misses": "wrong_misses",
    "sim.prefetch_issued": "prefetches",
}


class Instruments:
    """Spans and counts for one workload process."""

    def __init__(self, recorder: SpanRecorder | None = None) -> None:
        self.recorder = recorder
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def span(self, name: str, cell: str | None = None, parent: int | None = None):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, cell, parent)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def trace_call(self, owner, attr: str, span: str, sink=None) -> None:
        """Open a span around every call of ``owner.attr``;
        ``sink(args, result)``, when given, sees each call's result."""
        inner = getattr(owner, attr)

        def call(*args, **kwargs):
            with self.span(span):
                result = inner(*args, **kwargs)
            if sink is not None:
                sink(args, result)
            return result

        setattr(owner, attr, call)

    def trace_simulate(self, runner_module) -> None:
        """Replace the runner's ``simulate`` with ``build_engine`` + ``run``.

        That is exactly what ``simulate`` does; doing it here exposes the
        engine object, so each run is attributed to the backend that
        served it and the vector backend's probe-path split is read off.
        """
        from repro.core.engine import build_engine

        def simulate(program, trace, config, warmup=0, observer=None, stream=None):
            with self.span("engine") as span:
                engine = build_engine(
                    program, config, observer=observer, stream=stream
                )
                result = engine.run(trace, warmup_instructions=warmup)
                backend = engine.backend
                span.name = f"engine.{backend}"
            with self._lock:
                self.counts[f"engine.{backend}.runs"] += 1
                self.counts[f"engine.{backend}.instructions"] += (
                    trace.n_instructions
                )
                self.counts[f"engine.{backend}.probes"] += (
                    result.counters.right_probes + result.counters.wrong_probes
                )
                if backend == "vector":
                    for path in VECTOR_PATHS:
                        self.counts[f"vector.{path}"] += getattr(engine, path)
                for name, field in SIM_COUNTERS.items():
                    self.counts[name] += getattr(result.counters, field)
            return result

        runner_module.simulate = simulate

"""Dynamic-trace substrate.

The paper's simulator is trace-driven (ATOM instrumentation on Alpha).  Our
traces are *generated* by stochastically executing a synthetic
:class:`~repro.program.program.Program`, but downstream code sees the same
abstraction the paper's simulator saw: a sequence of correct-path basic
blocks, each ending in a control transfer with its actual outcome.

Records are block-granular (:class:`~repro.trace.event.BlockRecord`) rather
than instruction-granular — an exact, lossless compression that keeps the
pure-Python simulator fast enough for multi-hundred-thousand-instruction
runs.  Equal records are interned
(:class:`~repro.trace.event.RecordInterner`), so a trace holds one record
object per distinct block.
"""

from repro.trace.event import BlockRecord, RecordInterner, Trace
from repro.trace.generator import TraceGenerator, generate_trace
from repro.trace.io import load_trace, save_trace
from repro.trace.stats import TraceStats, compute_stats

__all__ = [
    "BlockRecord",
    "RecordInterner",
    "Trace",
    "TraceGenerator",
    "TraceStats",
    "compute_stats",
    "generate_trace",
    "load_trace",
    "save_trace",
]

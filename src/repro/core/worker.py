"""The sweep service's pool worker: one cell per call.

:func:`serve_cell` simulates one ``(benchmark, config)`` cell in a
spawned service worker (see :mod:`repro.service.server`).  It lives
under :mod:`repro.core`, not :mod:`repro.service`, because a spawned
worker imports this module to unpickle the function, and importing the
service would pull the asyncio server into every worker.

A pool worker holds the workload it prepared last (see
:data:`_held_workload`), so a run of one benchmark's cells loads it
once.  A fault plan (chaos testing, see :mod:`repro.core.faults`) fires
at every phase boundary, and a call with one neither reads nor fills
that memo, so every phase it names still fires.
"""

from __future__ import annotations

from repro.branch.stream import build_stream, replay_eligible, stream_digest
from repro.core.artifacts import ArtifactCache
from repro.core.engine import simulate
from repro.core.faults import corrupt_entry
from repro.core.results import SimulationResult
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace

#: In a pool worker: the last workload it prepared, as ``((name,
#: trace_length, seed), program, trace)``, so consecutive cells of one
#: benchmark skip the load and reuse its memoized lowering and wrong-path
#: segments.  One workload at most: workers are the peak-RSS processes.
_held_workload: tuple | None = None

#: Set by :func:`_pool_worker`: only pool workers hold a workload, never
#: a process that calls :func:`serve_cell` directly.
_hold_workloads = False


def _pool_worker() -> None:
    """Pool initializer: hold the last workload between cells."""
    global _hold_workloads
    _hold_workloads = True


def serve_cell(args) -> SimulationResult:
    """Worker: simulate one cell (runs in a service pool process).

    *args* is ``(name, config, trace_length, warmup, seed, cache_dir,
    fault_plan)``; the fault plan is ``None`` in production.

    Stream rule, for a replay-eligible config: a stream already in the
    artifact cache is loaded and replayed; otherwise a
    perfect-cache cell runs live, which costs less than a recording;
    otherwise (a real-cache architectural cell) the worker records the
    stream, stores it in the artifact cache and replays it, so the next
    request for that stream loads it instead of recording it again.
    Streams cross process boundaries as cache entries, never pickled.
    """
    global _held_workload
    name, config, trace_length, warmup, seed, cache_dir, plan = args
    artifacts = ArtifactCache(cache_dir)
    key = (name, trace_length, seed)
    hold = _hold_workloads and plan is None
    if hold and _held_workload is not None and _held_workload[0] == key:
        _, program, trace = _held_workload
    else:
        if hold:
            # Drop the held workload before loading the next one.
            _held_workload = None
        program, trace = _prepare(name, trace_length, seed, artifacts, plan)
        if hold:
            _held_workload = (key, program, trace)
    stream = None
    if replay_eligible(config):
        stream = artifacts.load_stream(
            name, trace_length, seed, stream_digest(config)
        )
        if stream is None and not config.perfect_cache:
            stream = build_stream(program, trace, config)
            artifacts.store_stream(name, trace_length, seed, stream)
    if plan is not None:
        plan.fire("simulate", name)
    return simulate(program, trace, config, warmup=warmup, stream=stream)


def _prepare(name, trace_length, seed, artifacts, plan):
    """Worker: the ``(program, trace)`` pair for one benchmark.

    Mirrors ``SimulationRunner.prepared`` exactly: the runner seed
    perturbs both the structure and the trace, so a served cell matches
    a local run; the shared on-disk artifact cache (atomic writes) lets
    every worker skip the build/generate phases after the first process.
    *plan* fires at every phase boundary.
    """
    pair = None
    if artifacts.enabled:
        if plan is not None:
            spec = plan.fire("cache_load", name)
            if spec is not None and spec.kind == "corrupt":
                corrupt_entry(artifacts.entry_dir(name, trace_length, seed))
        pair = artifacts.load(name, trace_length, seed)
    if pair is not None:
        return pair
    if plan is not None:
        plan.fire("build", name)
    program = build_workload(name, seed=seed)
    if plan is not None:
        plan.fire("generate", name)
    trace = generate_trace(program, trace_length, seed=seed)
    if artifacts.enabled:
        if plan is not None:
            plan.fire("cache_store", name)
        artifacts.store(name, trace_length, seed, program, trace)
    return program, trace

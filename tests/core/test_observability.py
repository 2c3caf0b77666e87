"""Engine/runner observability: passivity, event streams, metric totals.

The cardinal rule under test: observation never perturbs simulation.  A
run with any observer must return a ``SimulationResult`` equal to the
unobserved run, and the published metrics/events must agree with the
result's own counters.
"""

import pytest

from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.engine import build_engine, simulate
from repro.core.results import COMPONENTS
from repro.core.runner import SimulationRunner
from repro.obs import (
    MetricsRegistry,
    Observer,
    PhaseProfiler,
    RingBufferSink,
)
from repro.obs.events import (
    FetchStall,
    MissService,
    PrefetchIssue,
    Redirect,
)

TRACE = 20_000


@pytest.fixture(scope="module")
def bare_runner():
    """Warmup-free runner: metric partitions are exact only then."""
    return SimulationRunner(trace_length=TRACE, warmup=0, seed=3)


@pytest.fixture(scope="module")
def gcc(bare_runner):
    run = bare_runner.prepared("gcc")
    return run.program, run.trace


def observed(program, trace, config, sink=None, warmup=0):
    observer = Observer(sink=sink)
    result = simulate(program, trace, config, warmup=warmup, observer=observer)
    return result, observer


class TestPassivity:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_observer_never_changes_the_result(self, gcc, policy):
        program, trace = gcc
        config = SimConfig(policy=policy, prefetch=True)
        baseline = simulate(program, trace, config)
        with_metrics, _ = observed(program, trace, config)
        with_events, _ = observed(program, trace, config, sink=RingBufferSink())
        assert with_metrics == baseline
        assert with_events == baseline

    def test_observer_passive_with_warmup(self, gcc):
        program, trace = gcc
        config = SimConfig(prefetch=True)
        baseline = simulate(program, trace, config, warmup=5_000)
        result, _ = observed(
            program, trace, config, sink=RingBufferSink(), warmup=5_000
        )
        assert result == baseline


class TestMetrics:
    def test_stall_counters_match_penalties(self, gcc):
        program, trace = gcc
        config = SimConfig(policy=FetchPolicy.OPTIMISTIC, prefetch=True)
        result, observer = observed(program, trace, config)
        registry = observer.registry
        for name in COMPONENTS:
            assert registry.value(f"engine.stall_slots.{name}") == getattr(
                result.penalties, name
            )
        assert (
            registry.value("engine.stall_slots_total")
            == result.penalties.total_slots
        )

    def test_engine_counters_published(self, gcc):
        program, trace = gcc
        config = SimConfig(prefetch=True)
        result, observer = observed(program, trace, config)
        registry = observer.registry
        counters = result.counters
        assert registry.value("engine.instructions") == counters.instructions
        assert registry.value("engine.right_misses") == counters.right_misses
        assert registry.value("engine.wrong_misses") == counters.wrong_misses
        assert registry.value("branch.conditional") == result.branch_stats.conditional
        assert registry.value("bus.requests") > 0
        assert registry.value("cache.probes") == result.cache_stats.probes

    def test_miss_service_histogram(self, gcc):
        program, trace = gcc
        config = SimConfig(policy=FetchPolicy.OPTIMISTIC, prefetch=False)
        result, observer = observed(program, trace, config)
        hist = observer.registry.get("engine.miss_service_slots")
        assert hist.count == result.counters.right_fills + result.counters.wrong_fills
        assert hist.min >= 1

    @pytest.mark.parametrize("schedule", ["static", "oracle"])
    def test_histograms_count_the_measured_window(self, schedule):
        """With a warmup, the sample histograms count exactly the
        measured fills and redirects, on the event loop and the vector
        backend alike (the warmup window's samples are dropped at the
        boundary, like every counter)."""
        from dataclasses import replace

        from repro.branch.stream import build_stream

        run = SimulationRunner(trace_length=8_000, warmup=0, seed=3).prepared("gcc")
        program, trace = run.program, run.trace
        adaptive = {} if schedule == "static" else {
            "policy_schedule": "oracle", "adaptive_interval": 1_000,
        }
        arch = SimConfig(branch_schedule="architectural", **adaptive)
        stream = build_stream(program, trace, arch)
        # (config, stream, architectural?): the paper's timing schedule,
        # then an architectural cell replayed on the event loop,
        # self-recording and, where eligible, on the vector backend.
        cells = [
            (SimConfig(**adaptive), None, False),
            (replace(arch, engine_backend="event"), stream, True),
            (arch, None, True),
        ]
        if schedule == "static":
            cells.append((arch, stream, True))
        backends, arch_metrics = set(), []
        for config, given, architectural in cells:
            observer = Observer()
            engine = build_engine(program, config, observer=observer, stream=given)
            backends.add(engine.backend)
            result = engine.run(trace, warmup_instructions=4_000)
            registry = observer.registry
            stats = result.branch_stats
            redirects = (
                stats.btb_misfetches + stats.pht_mispredicts + stats.btb_mispredicts
            )
            fills = result.counters.right_fills + result.counters.wrong_fills
            assert registry.get("engine.miss_service_slots").count == fills
            assert registry.get("engine.redirect_penalty_slots").count == redirects
            if architectural:
                arch_metrics.append(registry.as_dict())
        assert backends == ({"event", "vector"} if schedule == "static" else {"adaptive"})
        assert all(metrics == arch_metrics[0] for metrics in arch_metrics)

    def test_prefetch_partition(self, gcc):
        program, trace = gcc
        config = SimConfig(prefetch=True)
        _, observer = observed(program, trace, config)
        registry = observer.registry
        issued = registry.value("prefetch.issued_total")
        assert issued > 0
        assert (
            registry.value("prefetch.useful")
            + registry.value("prefetch.late")
            + registry.value("prefetch.wasted")
            == issued
        )

    def test_classification_partition(self, gcc):
        program, trace = gcc
        config = SimConfig(policy=FetchPolicy.OPTIMISTIC, classify=True)
        result, observer = observed(program, trace, config)
        registry = observer.registry
        assert (
            registry.value("classify.both_miss")
            + registry.value("classify.spec_pollute")
            == result.counters.right_misses
        )
        assert (
            registry.value("classify.wrong_path") == result.counters.wrong_misses
        )

    def test_metrics_accumulate_across_runs(self, gcc):
        program, trace = gcc
        config = SimConfig()
        observer = Observer()
        one = simulate(program, trace, config, observer=observer)
        after_one = observer.registry.value("engine.instructions")
        simulate(program, trace, config, observer=observer)
        assert (
            observer.registry.value("engine.instructions")
            == 2 * after_one
            == 2 * one.counters.instructions
        )


class TestEventStream:
    def test_stall_events_sum_to_penalties(self, gcc):
        program, trace = gcc
        for policy in ALL_POLICIES:
            config = SimConfig(policy=policy, prefetch=True)
            sink = RingBufferSink(capacity=1_000_000)
            result, _ = observed(program, trace, config, sink=sink)
            by_cause = dict.fromkeys(COMPONENTS, 0)
            for event in sink.of_type(FetchStall):
                by_cause[event.cause] += event.slots
            assert by_cause == result.penalties.as_dict(), policy

    def test_redirect_events_match_branch_stats(self, gcc):
        program, trace = gcc
        config = SimConfig()
        sink = RingBufferSink(capacity=1_000_000)
        result, _ = observed(program, trace, config, sink=sink)
        redirects = sink.of_type(Redirect)
        stats = result.branch_stats
        mispredicted = (
            stats.pht_mispredicts + stats.btb_mispredicts + stats.btb_misfetches
        )
        assert len(redirects) == mispredicted
        assert sum(e.penalty_slots for e in redirects) == result.penalties.branch

    def test_miss_service_events_cover_all_fills(self, gcc):
        program, trace = gcc
        config = SimConfig(policy=FetchPolicy.OPTIMISTIC)
        sink = RingBufferSink(capacity=1_000_000)
        result, _ = observed(program, trace, config, sink=sink)
        services = sink.of_type(MissService)
        right = [e for e in services if e.path == "right"]
        wrong = [e for e in services if e.path == "wrong"]
        assert len(right) == result.counters.right_fills
        assert len(wrong) == result.counters.wrong_fills
        assert all(e.done > e.start for e in services)

    def test_prefetch_issue_events(self, gcc):
        program, trace = gcc
        config = SimConfig(prefetch=True, target_prefetch=True)
        sink = RingBufferSink(capacity=1_000_000)
        result, _ = observed(program, trace, config, sink=sink)
        issues = sink.of_type(PrefetchIssue)
        next_line = [e for e in issues if e.kind == "next_line"]
        target = [e for e in issues if e.kind == "target"]
        assert len(next_line) == result.counters.prefetches
        assert len(target) == result.counters.target_prefetches

    def test_event_times_are_monotonic_per_run(self, gcc):
        program, trace = gcc
        config = SimConfig(prefetch=True)
        sink = RingBufferSink(capacity=1_000_000)
        observed(program, trace, config, sink=sink)
        stall_times = [e.t for e in sink.of_type(FetchStall)]
        assert stall_times == sorted(stall_times)


class TestRunnerIntegration:
    def test_runner_profiles_phases(self):
        observer = Observer(profiler=PhaseProfiler())
        runner = SimulationRunner(
            trace_length=5_000, warmup=0, seed=3, observer=observer
        )
        runner.run("li", SimConfig())
        summary = observer.profiler.summary()
        assert set(summary) == {"build_program", "generate_trace", "simulate"}
        assert summary["simulate"]["calls"] == 1

    def test_runner_without_observer_unchanged(self, bare_runner):
        result = bare_runner.run("li", SimConfig())
        assert result.counters.instructions > 0


@pytest.mark.slow
class TestAcceptance:
    """ISSUE acceptance: a 50k-instruction observed run end to end."""

    def test_ring_sink_50k_run(self):
        runner = SimulationRunner(trace_length=50_000, warmup=0, seed=11)
        run = runner.prepared("gcc")
        config = SimConfig(policy=FetchPolicy.RESUME, prefetch=True)
        sink = RingBufferSink(capacity=2_000_000)
        observer = Observer(sink=sink)
        result = simulate(
            run.program, run.trace, config, observer=observer
        )
        assert result == simulate(run.program, run.trace, config)
        # non-empty typed stream
        assert sink.emitted > 0
        assert sink.dropped == 0
        kinds = {type(e).__name__ for e in sink.events()}
        assert "FetchStall" in kinds and "MissService" in kinds
        # metrics JSON satisfies the documented invariants
        metrics = observer.metrics_dict()
        assert sum(
            v for k, v in metrics.items() if k.startswith("engine.stall_slots.")
        ) == metrics["engine.stall_slots_total"]
        assert (
            metrics["prefetch.useful"]
            + metrics["prefetch.late"]
            + metrics["prefetch.wasted"]
            == metrics["prefetch.issued_total"]
        )
        # the snapshot is JSON-serialisable as-is
        import json

        json.dumps(metrics)

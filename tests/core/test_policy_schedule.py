"""The PolicySchedule seam: static bit-identity, scripts, controllers.

The differential backbone of PR 7: turning on interval accounting (or a
constant script) must be invisible in every measured number, and the
driver-required schedules (tournament, oracle) must run end-to-end,
deterministically, with interval stats that partition the run totals.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro.config import (
    REALIZABLE_POLICIES,
    FetchPolicy,
    SimConfig,
)
from repro.core.engine import build_engine, simulate
from repro.core.results import COMPONENTS
from repro.core.schedule import (
    OracleSchedule,
    ScriptSchedule,
    StaticSchedule,
    TournamentController,
    build_schedule,
    interval_spans,
)
from repro.branch import FetchOutcome
from repro.errors import SimulationError
from repro.isa import INSTRUCTION_SIZE, InstrKind
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace

TRACE_LENGTH = 6_000
INTERVAL = 1_000


@pytest.fixture(scope="module")
def workload():
    program = build_workload("li")
    trace = generate_trace(program, TRACE_LENGTH, seed=11)
    return program, trace


def _totals(result):
    return (
        result.penalties.as_dict(),
        result.counters.instructions,
        result.counters.right_misses,
        result.counters.wrong_misses,
    )


class TestIntervalSpans:
    def test_partition_is_exact(self, workload):
        _, trace = workload
        spans = interval_spans(trace.records, INTERVAL)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(trace.records)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo  # no gaps, no overlaps

    def test_spans_reach_interval(self, workload):
        _, trace = workload
        spans = interval_spans(trace.records, INTERVAL)
        for lo, hi in spans[:-1]:
            assert sum(r.length for r in trace.records[lo:hi]) >= INTERVAL

    def test_bad_interval(self):
        with pytest.raises(SimulationError):
            interval_spans([], 0)


class TestStaticBitIdentity:
    """Interval accounting must not change a static run's results."""

    @pytest.mark.parametrize("policy", REALIZABLE_POLICIES)
    def test_static_with_intervals_identical(self, workload, policy):
        program, trace = workload
        base = SimConfig(policy=policy)
        plain = simulate(program, trace, base)
        chunked = simulate(
            program, trace, replace(base, adaptive_interval=INTERVAL)
        )
        assert _totals(plain) == _totals(chunked)
        assert plain.total_ispi == chunked.total_ispi
        # And the intervals partition the totals exactly.
        assert sum(s.instructions for s in chunked.intervals) == (
            chunked.counters.instructions
        )
        assert sum(s.penalty_slots for s in chunked.intervals) == (
            plain.penalties.total_slots
        )

    def test_constant_script_matches_static(self, workload):
        program, trace = workload
        static = simulate(program, trace, SimConfig(policy=FetchPolicy.RESUME))
        scripted = simulate(
            program,
            trace,
            SimConfig(
                policy=FetchPolicy.RESUME,
                policy_schedule="script",
                adaptive_interval=INTERVAL,
                policy_script=(FetchPolicy.RESUME,),
            ),
        )
        assert _totals(static) == _totals(scripted)

    def test_warmup_preserved_under_intervals(self, workload):
        program, trace = workload
        base = SimConfig(policy=FetchPolicy.OPTIMISTIC)
        plain = simulate(program, trace, base, warmup=1_500)
        chunked = simulate(
            program,
            trace,
            replace(base, adaptive_interval=INTERVAL),
            warmup=1_500,
        )
        assert _totals(plain) == _totals(chunked)


class TestScriptSchedule:
    def test_script_switches_policy(self, workload):
        program, trace = workload
        config = SimConfig(
            policy_schedule="script",
            adaptive_interval=INTERVAL,
            policy_script=(FetchPolicy.PESSIMISTIC, FetchPolicy.OPTIMISTIC),
        )
        result = simulate(program, trace, config)
        assert result.metadata["policy_switches"] >= 1
        assert [s.policy for s in result.intervals[:2]] == [
            FetchPolicy.PESSIMISTIC,
            FetchPolicy.OPTIMISTIC,
        ]
        # Last script entry repeats for the remaining intervals.
        assert all(
            s.policy is FetchPolicy.OPTIMISTIC for s in result.intervals[1:]
        )

    def test_script_differs_from_static(self, workload):
        program, trace = workload
        scripted = simulate(
            program,
            trace,
            SimConfig(
                policy_schedule="script",
                adaptive_interval=INTERVAL,
                policy_script=(FetchPolicy.PESSIMISTIC, FetchPolicy.OPTIMISTIC),
            ),
        )
        static = simulate(
            program, trace, SimConfig(policy=FetchPolicy.PESSIMISTIC)
        )
        assert _totals(scripted) != _totals(static)


class TestDriverSchedules:
    def _config(self, kind):
        return SimConfig(
            policy_schedule=kind,
            adaptive_interval=INTERVAL,
            adaptive_policies=(FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
        )

    @pytest.mark.parametrize("kind", ["tournament", "oracle"])
    def test_runs_and_partitions(self, workload, kind):
        program, trace = workload
        result = simulate(program, trace, self._config(kind))
        assert result.intervals
        assert sum(s.instructions for s in result.intervals) == (
            result.counters.instructions
        )
        for component in COMPONENTS:
            assert sum(s.penalties[component] for s in result.intervals) == (
                result.penalties.as_dict()[component]
            )
        assert result.metadata["shadow_runs"] > 0

    @pytest.mark.parametrize("kind", ["tournament", "oracle"])
    def test_deterministic(self, workload, kind):
        program, trace = workload
        first = simulate(program, trace, self._config(kind))
        second = simulate(program, trace, self._config(kind))
        assert _totals(first) == _totals(second)
        assert [s.policy for s in first.intervals] == [
            s.policy for s in second.intervals
        ]

    def test_driver_required_refused_by_plain_engine(self, workload):
        program, _ = workload
        engine = build_engine(program, self._config("tournament"))
        # The factory returns the adaptive driver, never a bare engine.
        assert engine.backend == "adaptive"
        inner = engine.inner
        with pytest.raises(SimulationError):
            inner.run(generate_trace(program, 1_000, seed=1))

    def test_oracle_not_worse_than_its_candidates_here(self, workload):
        """Greedy per-interval oracle on this workload matches or beats
        every static candidate (not a theorem, but a property of these
        traces the experiment's headline rests on)."""
        program, trace = workload
        oracle = simulate(program, trace, self._config("oracle"))
        statics = [
            simulate(program, trace, SimConfig(policy=p))
            for p in (FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC)
        ]
        assert oracle.total_ispi <= min(s.total_ispi for s in statics) + 1e-9


class TestOracleAdoption:
    """The oracle driver adopts the winning fork, observed or not.

    Differential contract: every run — with no observer, a metrics-only
    observer or an event sink — makes the same ``_run_span`` calls (one
    per candidate per interval, no committed re-run) and reports the
    same results; the two observed runs publish the same registry.
    """

    CONFIG = SimConfig(
        policy_schedule="oracle",
        adaptive_interval=INTERVAL,
        adaptive_policies=(FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
    )

    def _count_spans(self, monkeypatch):
        from repro.core.engine import FetchEngine

        calls = {"n": 0}
        original = FetchEngine._run_span

        def counting(engine, plans, t, warm_left):
            calls["n"] += 1
            return original(engine, plans, t, warm_left)

        monkeypatch.setattr(FetchEngine, "_run_span", counting)
        return calls

    def test_observed_run_adopts_like_unobserved(self, workload, monkeypatch):
        from dataclasses import asdict

        from repro.obs import Observer, RingBufferSink

        program, trace = workload
        calls = self._count_spans(monkeypatch)
        runs = []
        for observer in (
            None, Observer(), Observer(sink=RingBufferSink(1 << 20))
        ):
            calls["n"] = 0
            result = simulate(program, trace, self.CONFIG, observer=observer)
            runs.append((result, calls["n"], observer))
        (plain, plain_spans, _), *observed = runs
        intervals = len(plain.intervals)
        assert intervals > 1
        assert plain_spans == intervals * len(self.CONFIG.adaptive_policies)
        for result, spans, _ in observed:
            assert spans == plain_spans
            assert asdict(result) == asdict(plain)
        (_, _, metrics_only), (_, _, with_events) = observed
        assert metrics_only.registry.as_dict() == with_events.registry.as_dict()
        assert with_events.sink.dropped == 0 and len(with_events.sink) > 0

    def test_adopt_matches_with_warmup(self, workload, monkeypatch):
        from repro.obs import Observer

        program, trace = workload
        adopted = simulate(program, trace, self.CONFIG, warmup=1_500)
        observed = simulate(
            program, trace, self.CONFIG, warmup=1_500, observer=Observer()
        )
        assert _totals(adopted) == _totals(observed)
        assert [s.policy for s in adopted.intervals] == [
            s.policy for s in observed.intervals
        ]


    def test_adopted_prefetcher_times_fills_on_the_committed_engine(
        self, workload, monkeypatch
    ):
        from repro.core.engine import FetchEngine

        program, trace = workload
        config = replace(self.CONFIG, prefetch=True, stream_buffers=2)
        engine = build_engine(program, config)
        engine.run(trace)
        inner = engine.inner
        # The oracle adopted a fork every interval; the fill timing the
        # adopted prefetcher and stream buffers call is the committed
        # engine's, not the last spent fork's.
        assert inner.prefetcher.fill_duration.__self__ is inner
        assert inner.streams.fill_duration.__self__ is inner
        copies = []
        reduce_ex = FetchEngine.__reduce_ex__

        def counting(self, protocol):
            copies.append(self)
            return reduce_ex(self, protocol)

        monkeypatch.setattr(FetchEngine, "__reduce_ex__", counting)
        fork = inner.fork()
        assert copies == [inner]
        assert fork.prefetcher.fill_duration.__self__ is fork


def _unit_state(unit):
    btb = unit.btb
    return (
        copy.deepcopy(unit.stats),
        [[(e.tag, e.target, e.counter) for e in ways] for ways in btb._sets],
        (btb.hits, btb.misses, btb.insertions, btb.evictions),
        list(unit.pht.table.values),
        unit.history.value,
    )


class TestForkIsolation:
    """Forks copy the live predictor but share the interned results."""

    SPLIT = 600

    def _warm_engine(self, workload):
        program, trace = workload
        engine = build_engine(program, SimConfig())
        plans = engine.plans(trace)
        t, warm = engine._run_span(plans[: self.SPLIT], 0, 0)
        return engine, plans[self.SPLIT :], t, warm

    def test_fork_leaves_parent_untouched(self, workload):
        engine, rest, t, warm = self._warm_engine(workload)
        unit = engine.unit
        before = _unit_state(unit)
        counters = copy.deepcopy(engine.counters)
        fork = engine.fork()
        assert fork.unit is not unit and fork.unit.stats is not unit.stats
        fork._run_span(rest, t, warm)
        assert _unit_state(fork.unit) != before
        assert _unit_state(unit) == before
        assert engine.counters == counters

    def test_forks_share_interned_results(self, workload):
        engine, _, _, _ = self._warm_engine(workload)
        program, _ = workload
        image = program.image
        first, second = engine.fork(), engine.fork()
        # A not-taken prediction confirmed by the truth is correct.
        pc = next(
            image.base + INSTRUCTION_SIZE * i
            for i, kind in enumerate(image.kinds_list)
            if kind == InstrKind.COND_BRANCH
            and not engine.unit.peek_direction(image.base + INSTRUCTION_SIZE * i)
        )
        target = image.targets_list[(pc - image.base) // INSTRUCTION_SIZE]
        fall = pc + INSTRUCTION_SIZE
        args = (pc, InstrKind.COND_BRANCH, target, False, fall, fall)
        result = first.unit.predict(*args)
        assert result.outcome is FetchOutcome.CORRECT
        assert second.unit.predict(*args) is result

    def test_adopt_leaves_parent_results_untouched(self, workload):
        engine, rest, t, warm = self._warm_engine(workload)
        old_unit = engine.unit
        before = _unit_state(old_unit)
        fork = engine.fork()
        t, warm = fork._run_span(rest[:400], t, warm)
        adopted = _unit_state(fork.unit)
        engine.adopt(fork)
        assert engine.unit is fork.unit
        assert _unit_state(engine.unit) == adopted
        engine._run_span(rest[400:800], t, warm)
        assert _unit_state(old_unit) == before


class TestScheduleUnits:
    def test_build_schedule_dispatch(self):
        assert isinstance(build_schedule(SimConfig()), StaticSchedule)
        assert isinstance(
            build_schedule(
                SimConfig(
                    policy_schedule="script",
                    adaptive_interval=100,
                    policy_script=(FetchPolicy.RESUME,),
                )
            ),
            ScriptSchedule,
        )
        assert isinstance(
            build_schedule(
                SimConfig(policy_schedule="tournament", adaptive_interval=100)
            ),
            TournamentController,
        )
        assert isinstance(
            build_schedule(
                SimConfig(policy_schedule="oracle", adaptive_interval=100)
            ),
            OracleSchedule,
        )

    def test_tournament_hysteresis(self):
        controller = TournamentController(
            candidates=(FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
            incumbent=FetchPolicy.RESUME,
            history=1,  # no smoothing: estimates pass through
            hysteresis=2,
            margin=0.02,
        )
        better = {FetchPolicy.RESUME: 1.0, FetchPolicy.PESSIMISTIC: 0.5}
        # First win: streak of 1, no switch yet.
        assert controller.update(better) is FetchPolicy.RESUME
        # Second consecutive win: switch.
        assert controller.update(better) is FetchPolicy.PESSIMISTIC
        assert controller.switches == 1

    def test_tournament_margin_blocks_near_ties(self):
        controller = TournamentController(
            candidates=(FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
            incumbent=FetchPolicy.RESUME,
            history=1,
            hysteresis=1,
            margin=0.05,
        )
        near_tie = {FetchPolicy.RESUME: 1.0, FetchPolicy.PESSIMISTIC: 0.97}
        assert controller.update(near_tie) is FetchPolicy.RESUME
        assert controller.switches == 0

    def test_streak_resets_on_interruption(self):
        controller = TournamentController(
            candidates=(FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC),
            incumbent=FetchPolicy.RESUME,
            history=1,
            hysteresis=2,
            margin=0.02,
        )
        better = {FetchPolicy.RESUME: 1.0, FetchPolicy.PESSIMISTIC: 0.5}
        tie = {FetchPolicy.RESUME: 1.0, FetchPolicy.PESSIMISTIC: 1.0}
        controller.update(better)  # streak 1
        controller.update(tie)  # streak broken
        controller.update(better)  # streak 1 again
        assert controller.update(better) is FetchPolicy.PESSIMISTIC

    def test_script_repeats_last_entry(self):
        schedule = ScriptSchedule((FetchPolicy.RESUME, FetchPolicy.DECODE))
        assert schedule.policy_for(0) is FetchPolicy.RESUME
        assert schedule.policy_for(1) is FetchPolicy.DECODE
        assert schedule.policy_for(99) is FetchPolicy.DECODE

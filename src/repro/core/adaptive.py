"""The adaptive driver: controller-driven per-interval policy runs.

:class:`AdaptiveEngine` honours the two schedules the plain event loop
cannot (``schedule.driver_required``), both built on the warm-state
primitives of :class:`~repro.core.engine.FetchEngine` — ``fork`` (deep
copy of the warm machine), ``set_policy`` (interval-boundary policy
swap), and ``_run_span`` (the hot loop over one interval's lowered
records, shared by every fork):

* **tournament** — the committed timeline runs the controller's
  incumbent; every other candidate runs the same interval on a fork of
  the pre-interval state (a *shadow* run).  The measured and shadow
  per-interval ISPIs feed
  :meth:`~repro.core.schedule.TournamentController.update`, which
  switches the incumbent at the boundary once a challenger has beaten it
  by the margin for the hysteresis streak.

* **oracle** — every candidate runs each interval on its own fork of the
  same warm state; the interval is then committed under the winner
  (fewest penalty slots, candidate order breaking ties).  This is the
  adaptive upper bound: no realizable controller can beat a per-interval
  argmin taken with hindsight from identical warm state.

The committed timeline always lives on the wrapped engine, so events,
distribution samples, metric publication, and result construction go
through the exact same code path as a plain event-loop run.  Shadow
forks are observation-free by construction (``fork`` strips sinks) and
are discarded after their interval.  Construct only through
``build_engine`` (SIM011).
"""

from __future__ import annotations

from repro.config import FetchPolicy
from repro.core.engine import check_run
from repro.core.lowering import span_counts
from repro.core.results import SimulationResult
from repro.core.schedule import (
    OracleSchedule,
    TournamentController,
    interval_spans,
)
from repro.errors import SimulationError
from repro.trace.event import Trace


class AdaptiveEngine:
    """Driver for controller-driven (tournament / oracle) schedules."""

    backend = "adaptive"

    def __init__(self, inner) -> None:
        self.inner = inner
        self.program = inner.program
        self.config = inner.config
        self.observer = inner.observer
        self.schedule = inner.schedule
        if not self.schedule.driver_required:
            raise SimulationError(
                f"policy_schedule={self.config.policy_schedule!r} does "
                "not need the adaptive driver; run the engine directly"
            )

    # -- entry point ---------------------------------------------------------

    def run(self, trace: Trace, warmup_instructions: int = 0) -> SimulationResult:
        """Simulate *trace*; same contract as the event loop's ``run``."""
        inner = self.inner
        check_run(inner.program, trace, warmup_instructions)
        inner._start_run(trace)
        plans = inner.plans(trace)
        spans = interval_spans(trace.records, self.config.adaptive_interval)
        if isinstance(self.schedule, TournamentController):
            t = self._run_tournament(plans, spans, warmup_instructions)
        elif isinstance(self.schedule, OracleSchedule):
            t = self._run_oracle(plans, spans, warmup_instructions)
        else:
            raise SimulationError(
                f"unknown driver schedule {type(self.schedule).__name__}"
            )
        inner._finish_run(t)
        return inner._build_result(trace)

    # -- shadow primitives ---------------------------------------------------

    def _shadow_interval(
        self,
        fork,
        policy: FetchPolicy,
        span: tuple[int, int],
        plans,
        index: int,
        t: int,
        warm_left: int,
        reset: bool,
    ):
        """Run one interval on *fork* under *policy*.

        Returns ``(stats, end_t, end_warm)`` — the interval's stats plus
        the fork's advanced clock and warmup remainder, so the oracle can
        adopt the winning fork's end state without re-simulating.
        """
        lo, hi = span
        fork.set_policy(policy)
        snapshot = fork.snapshot_stats()
        end_t, end_warm = fork._run_span(plans[lo:hi], t, warm_left)
        self.inner.shadow_runs += 1
        return fork.interval_delta(index, snapshot, reset=reset), end_t, end_warm

    # -- the two drivers ----------------------------------------------------

    def _run_tournament(self, plans, spans, warmup_instructions: int) -> int:
        """Committed incumbent + shadow challengers per interval."""
        inner = self.inner
        controller = self.schedule
        t = 0
        warm_left = warmup_instructions
        for k, (lo, hi) in enumerate(spans):
            incumbent = controller.policy_for(k)
            inner.set_policy(incumbent, t=t, interval=k)
            # Fork the pre-interval warm state for every challenger
            # before the committed run disturbs it.
            shadows = [
                (policy, inner.fork())
                for policy in controller.candidates
                if policy is not incumbent
            ]
            snapshot = inner.snapshot_stats()
            warm_before = warm_left
            t_before = t
            t, warm_left = inner._run_span(plans[lo:hi], t, warm_left)
            reset = warm_before > 0 and warm_left <= 0
            stats = inner.interval_delta(k, snapshot, reset=reset)
            inner.commit_interval(stats, reset=reset)
            estimates = {incumbent: stats.ispi}
            for policy, fork in shadows:
                shadow, _, _ = self._shadow_interval(
                    fork, policy, (lo, hi), plans, k, t_before,
                    warm_before, reset,
                )
                estimates[policy] = shadow.ispi
            controller.update(estimates)
        return t

    def _run_oracle(self, plans, spans, warmup_instructions: int) -> int:
        """Best-of-all-candidates per interval, from identical warm state.

        Every candidate (including the eventual winner) runs the interval
        on its own fork; the winner's fork is then *adopted* as the
        committed timeline (:meth:`~repro.core.engine.FetchEngine.adopt`)
        — the simulation is deterministic, so re-running the winning
        interval on the committed engine would reproduce the adopted
        state bit for bit while costing one extra simulation per
        interval.  Under a live observer, forks carry no sinks or
        distribution buffers, so the driver falls back to exactly that
        re-run (the committed pass is what emits events and samples);
        results are identical either way, which the differential suite
        asserts.
        """
        inner = self.inner
        candidates = self.schedule.candidates
        adopt = inner.observer is None
        t = 0
        warm_left = warmup_instructions
        for k, (lo, hi) in enumerate(spans):
            warm_before = warm_left
            # A fork per candidate; every one replays the same interval
            # from the same warm state.  The reset flag is policy
            # independent (warmup is counted in instructions), so probe
            # it on the first candidate's stats via the shared warm path.
            best = None
            best_slots = None
            reset = (
                warm_before > 0
                and warm_before - span_counts(plans[lo:hi])[0] <= 0
            )
            for policy in candidates:
                fork = inner.fork()
                stats, end_t, end_warm = self._shadow_interval(
                    fork, policy, (lo, hi), plans, k, t, warm_before, reset
                )
                if best_slots is None or stats.penalty_slots < best_slots:
                    best = (policy, fork, stats, end_t, end_warm)
                    best_slots = stats.penalty_slots
            best_policy, best_fork, stats, end_t, end_warm = best
            if adopt:
                inner.adopt(best_fork)
                t, warm_left = end_t, end_warm
            else:
                inner.set_policy(best_policy, t=t, interval=k)
                snapshot = inner.snapshot_stats()
                t, warm_left = inner._run_span(plans[lo:hi], t, warm_left)
                stats = inner.interval_delta(k, snapshot, reset=reset)
            inner.commit_interval(stats, reset=reset)
            self.schedule.observe(stats)
        return t

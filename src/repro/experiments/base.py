"""Experiment infrastructure.

Every reproduced table/figure is an *experiment*: a function taking a
:class:`~repro.core.runner.SimulationRunner` and returning an
:class:`ExperimentResult` holding rendered tables/charts plus the raw data
(used by tests and by EXPERIMENTS.md generation).

Every experiment whose cells all go through the runner is defined
*planned* (:func:`planned`), so it hands its cells to the runner as one
batch wherever it is called: the CLI, the registry, the benchmark, or a
direct call.
"""

from __future__ import annotations

import copy
import functools
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

from repro.config import FetchPolicy, SimConfig
from repro.core.results import MissingResult, SimulationResult
from repro.core.runner import SimulationRunner
from repro.errors import ExperimentError
from repro.report.figures import StackedBarChart
from repro.report.format import Table


@dataclass(slots=True)
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    title: str
    paper_ref: str
    tables: list[Table] = field(default_factory=list)
    charts: list[StackedBarChart] = field(default_factory=list)
    #: Machine-readable results keyed by whatever the experiment defines.
    data: dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        """Render everything to a printable report."""
        parts = [f"== {self.experiment_id}: {self.title} ==",
                 f"(paper: {self.paper_ref})"]
        if self.notes:
            parts.append(self.notes)
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        for chart in self.charts:
            parts.append("")
            parts.append(chart.render())
        return "\n".join(parts)


_Experiment = TypeVar("_Experiment", bound=Callable[..., object])


def planned(experiment: _Experiment) -> _Experiment:
    """*experiment*, with its cells handed to the runner as one plan.

    On a runner that can take a plan (``run_many``) and has no fault
    plan, the wrapper runs *experiment* three times over: a planning
    pass against a shallow copy of the runner whose ``run`` and
    ``run_jobs`` record each ``(benchmark, config)`` and return
    :class:`MissingResult` placeholders (the copy shares the runner's
    memos, so programs and traces it builds are reused), then
    ``runner.run_many(plan)``, then the real pass against the untouched
    runner, which requests its cells exactly as an unplanned run does.
    ``runner.drop_plan()`` then frees whatever the plan held.  A
    :class:`~repro.core.runner.SimulationRunner` simulates the plan on
    every core; a :class:`~repro.service.client.RemoteRunner` sends it
    as one request.

    A planning pass that requested no cell is the experiment's result;
    one that raises is warned about and counted (``sweep.plan_errors``),
    and the experiment still runs.  When it raised an
    :class:`~repro.errors.ExperimentError` (a deterministic refusal,
    such as an experiment that needs local traces on a remote runner),
    the warning waits for the real pass: if that raises too, its error
    speaks for itself; if it returns, the fallback is reported then.
    Other runners, and fault plans (whose faults must fire in request
    order), get the plain experiment.
    """

    def plan_failed(runner, exc: Exception) -> None:
        warnings.warn(
            f"planning {experiment.__name__} failed; its cells run one "
            f"at a time ({type(exc).__name__}: {exc})",
            RuntimeWarning,
            stacklevel=3,
        )
        observer = getattr(runner, "observer", None)
        if observer is not None:
            observer.registry.inc("sweep.plan_errors")

    @functools.wraps(experiment)
    def run(runner, *args, **kwargs):
        if not hasattr(runner, "run_many") or (
            getattr(runner, "fault_plan", None) is not None
        ):
            return experiment(runner, *args, **kwargs)
        plan = []
        planner = copy.copy(runner)

        def record(name, config):
            plan.append((name, config))
            return MissingResult(program=name, config=config)

        planner.run = record
        planner.run_jobs = lambda jobs: [record(*job) for job in jobs]
        refusal = None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dry = experiment(planner, *args, **kwargs)
        except ExperimentError as exc:
            refusal = exc
        except Exception as exc:
            plan_failed(runner, exc)
        else:
            if not plan:
                return dry
            runner.run_many(plan)
        try:
            result = experiment(runner, *args, **kwargs)
        finally:
            runner.drop_plan()
        if refusal is not None:
            plan_failed(runner, refusal)
        return result

    return run  # type: ignore[return-value]


def policy_breakdowns(
    runner: SimulationRunner,
    benchmarks: Sequence[str],
    config: SimConfig,
    policies: Sequence[FetchPolicy],
) -> dict[str, dict[FetchPolicy, SimulationResult]]:
    """Run the benchmark x policy matrix for figure-style experiments."""
    return runner.run_matrix(benchmarks, config, policies)


def language_average(
    values: dict[str, float], names: Sequence[str]
) -> float:
    """Average of *values* over the subset *names*."""
    subset = [values[name] for name in names if name in values]
    return sum(subset) / len(subset) if subset else 0.0

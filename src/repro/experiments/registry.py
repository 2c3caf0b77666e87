"""Experiment registry: id -> runner function.

The single authoritative map from the paper's artifact ids (``table2`` ..
``figure4``) plus the ablation ids to the functions that regenerate them.
Used by the CLI, the benchmark harness, and the integration tests.

Every experiment whose cells all go through the runner is registered
*planned* (:func:`planned`): on a :class:`SimulationRunner` it first runs
against a recording copy of the runner to collect its cells, hands them
to :meth:`SimulationRunner.run_many` to simulate on every core, then
runs for real and is served each result in request order.
"""

from __future__ import annotations

import copy
import functools
import warnings
from collections.abc import Callable

from repro.core.results import MissingResult
from repro.core.runner import SimulationRunner
from repro.errors import ExperimentError
from repro.experiments.adaptive import run_adaptive
from repro.experiments.ablations import (
    run_ablation_assoc,
    run_ablation_btb,
    run_ablation_btbupd,
    run_ablation_linesize,
    run_ablation_pht,
    run_ablation_pht_size,
    run_ablation_ras,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.baseline import run_figure1
from repro.experiments.extensions import (
    run_extension_l2,
    run_extension_nonblocking,
    run_extension_prefetch_variants,
    run_extension_reorder,
    run_extension_streambuffer,
)
from repro.experiments.cachesize import run_table6
from repro.experiments.characterization import run_table2, run_table3
from repro.experiments.depth import run_table5
from repro.experiments.latency import run_figure2
from repro.experiments.missclass import run_table4
from repro.experiments.prefetch import run_figure3, run_figure4, run_table7

ExperimentFn = Callable[[SimulationRunner], ExperimentResult]


def _run_robustness(runner: SimulationRunner) -> ExperimentResult:
    """Lazy wrapper: repro.analysis imports experiment machinery, so the
    registry must import it only at call time (avoids a cycle)."""
    from repro.analysis.robustness import run_robustness

    return run_robustness(runner)


def planned(experiment: ExperimentFn) -> ExperimentFn:
    """*experiment*, with its cells simulated on every core up front.

    On a :class:`SimulationRunner` without a fault plan, the wrapper
    runs *experiment* three times over: a planning pass against a
    shallow copy of the runner whose ``run`` records each ``(benchmark,
    config)`` and returns a :class:`MissingResult` (the copy shares the
    runner's memos, so programs and traces it builds are reused), then
    ``runner.run_many(plan)``, then the real pass against the untouched
    runner, which requests its cells exactly as a serial run does.  A
    planning pass that requested no cell is the experiment's result; one
    that raises is warned about and counted (``sweep.plan_errors``), and
    the experiment still runs.  Other runners, and fault plans (whose
    faults must fire in request order), get the plain experiment.
    """

    @functools.wraps(experiment)
    def run(runner, *args, **kwargs):
        if not isinstance(runner, SimulationRunner) or (
            runner.fault_plan is not None
        ):
            return experiment(runner, *args, **kwargs)
        plan = []
        planner = copy.copy(runner)

        def record(name, config):
            plan.append((name, config))
            return MissingResult(program=name, config=config)

        planner.run = record
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dry = experiment(planner, *args, **kwargs)
        except Exception as exc:
            warnings.warn(
                f"planning {experiment.__name__} failed; its cells run one "
                f"at a time ({type(exc).__name__}: {exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            if runner.observer is not None:
                runner.observer.registry.inc("sweep.plan_errors")
        else:
            if not plan:
                return dry
            runner.run_many(plan)
        return experiment(runner, *args, **kwargs)

    return run


#: Experiments that simulate outside the runner, so a planning pass
#: would see none of their cells.
_UNPLANNED = ("extension_reorder", "robustness")

#: All experiments in paper order, then ablations.
EXPERIMENTS: dict[str, ExperimentFn] = {
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "figure1": run_figure1,
    "figure2": run_figure2,
    "table5": run_table5,
    "table6": run_table6,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "table7": run_table7,
    "ablation_btb": run_ablation_btb,
    "ablation_pht": run_ablation_pht,
    "ablation_assoc": run_ablation_assoc,
    "ablation_btbupd": run_ablation_btbupd,
    "ablation_ras": run_ablation_ras,
    "ablation_pht_size": run_ablation_pht_size,
    "ablation_linesize": run_ablation_linesize,
    "extension_nonblocking": run_extension_nonblocking,
    "extension_l2": run_extension_l2,
    "extension_prefetch_variants": run_extension_prefetch_variants,
    "extension_reorder": run_extension_reorder,
    "extension_streambuffer": run_extension_streambuffer,
    "adaptive": run_adaptive,
    "robustness": _run_robustness,
}
EXPERIMENTS = {
    eid: fn if eid in _UNPLANNED else planned(fn)
    for eid, fn in EXPERIMENTS.items()
}

#: The experiments reproducing paper artifacts (no ablations, extensions,
#: or beyond-the-paper studies like the adaptive scheduler).
PAPER_EXPERIMENTS: tuple[str, ...] = tuple(
    eid
    for eid in EXPERIMENTS
    if not eid.startswith(("ablation_", "extension_", "robustness", "adaptive"))
)


def get_experiment(experiment_id: str) -> ExperimentFn:
    """Look up an experiment by id; raises for unknown ids."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}"
        ) from None


def run_experiment(
    experiment_id: str, runner: SimulationRunner
) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(experiment_id)(runner)

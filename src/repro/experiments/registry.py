"""Experiment registry: id -> runner function.

The single authoritative map from the paper's artifact ids (``table2`` ..
``figure4``) plus the ablation ids to the functions that regenerate them.
Used by the CLI, the benchmark harness, and the integration tests.

Every experiment whose cells all go through the runner is defined
*planned* (:func:`~repro.experiments.base.planned`, re-exported here):
it first runs against a recording copy of the runner to collect its
cells, hands them to the runner's ``run_many``, then runs for real and
is served each result in request order.  ``robustness`` and
``extension_reorder`` simulate outside the runner, so a planning pass
would see none of their cells: they are defined unplanned.
"""

from __future__ import annotations

from collections.abc import Callable

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
from repro.experiments.base import ExperimentResult, planned
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

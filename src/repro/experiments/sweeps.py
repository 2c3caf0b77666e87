"""Generic parameter sweeps.

The paper-artifact experiments are fixed sweeps; this module is the
free-form counterpart: a cartesian sweep over any
:class:`~repro.config.SimConfig` fields, returning long-format rows that
feed tables, CSV export, or external plotting.  Used by
``examples/custom_sweep.py`` and available to downstream users who want
to explore configurations the paper never ran.

:meth:`Sweep.run` hands all its cells to the runner in one
``run_jobs`` call, so a :class:`~repro.core.runner.SimulationRunner`
simulates them on every core and a ``RemoteRunner`` sends them as one
request.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, fields, replace
from typing import Protocol

from repro.config import SimConfig
from repro.core.results import SimulationResult
from repro.errors import ExperimentError
from repro.report.format import Table

#: Metrics extractable per run: name -> function of the result.
METRICS: dict[str, Callable[[SimulationResult], float]] = {
    "total_ispi": lambda r: r.total_ispi,
    "miss_percent": lambda r: r.miss_rate_percent,
    "memory_accesses": lambda r: float(r.counters.memory_accesses),
    "branch_ispi": lambda r: r.ispi("branch"),
    "rt_icache_ispi": lambda r: r.ispi("rt_icache"),
    "wrong_icache_ispi": lambda r: r.ispi("wrong_icache"),
    "bus_ispi": lambda r: r.ispi("bus"),
    "force_resolve_ispi": lambda r: r.ispi("force_resolve"),
    "branch_full_ispi": lambda r: r.ispi("branch_full"),
    "cycles": lambda r: r.total_cycles,
}

_CONFIG_FIELDS = {f.name for f in fields(SimConfig)}


class JobRunner(Protocol):
    """What a sweep needs of a runner: results of a batch, in job order."""

    def run_jobs(
        self, jobs: list[tuple[str, SimConfig]]
    ) -> list[SimulationResult]: ...


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One (benchmark, parameter assignment) result row."""

    benchmark: str
    parameters: tuple[tuple[str, object], ...]
    metrics: dict[str, float]
    result: SimulationResult

    def parameter(self, name: str) -> object:
        """Value of one swept parameter at this point."""
        for key, value in self.parameters:
            if key == name:
                return value
        raise ExperimentError(f"parameter {name!r} was not swept")


class Sweep:
    """A cartesian sweep definition.

    Example::

        sweep = Sweep(
            base=SimConfig(),
            axes={
                "policy": [FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC],
                "miss_penalty_cycles": [5, 10, 20],
            },
        )
        points = sweep.run(runner, benchmarks=["gcc"])
        print(sweep.table(points, metric="total_ispi").render())
    """

    def __init__(
        self,
        base: SimConfig,
        axes: Mapping[str, Sequence[object]],
        metrics: Sequence[str] = ("total_ispi",),
    ) -> None:
        if not axes:
            raise ExperimentError("a sweep needs at least one axis")
        unknown = set(axes) - _CONFIG_FIELDS
        if unknown:
            raise ExperimentError(
                f"unknown SimConfig fields: {sorted(unknown)}"
            )
        for name, values in axes.items():
            if not values:
                raise ExperimentError(f"axis {name!r} has no values")
        bad_metrics = set(metrics) - set(METRICS)
        if bad_metrics:
            raise ExperimentError(
                f"unknown metrics {sorted(bad_metrics)}; "
                f"known: {sorted(METRICS)}"
            )
        self.base = base
        self.axes = {name: list(values) for name, values in axes.items()}
        self.metrics = list(metrics)

    def configurations(self) -> list[tuple[tuple[tuple[str, object], ...], SimConfig]]:
        """All (parameter assignment, config) pairs, in axis order."""
        names = list(self.axes)
        combos = itertools.product(*(self.axes[name] for name in names))
        out = []
        for combo in combos:
            assignment = tuple(zip(names, combo))
            config = replace(self.base, **dict(assignment))
            out.append((assignment, config))
        return out

    def run(
        self,
        runner: JobRunner,
        benchmarks: Sequence[str],
    ) -> list[SweepPoint]:
        """Execute the sweep; points ordered benchmark-major."""
        cells = [
            (name, assignment, config)
            for name in benchmarks
            for assignment, config in self.configurations()
        ]
        results = runner.run_jobs([(name, config) for name, _, config in cells])
        return [
            SweepPoint(
                benchmark=name,
                parameters=assignment,
                metrics={
                    metric: METRICS[metric](result) for metric in self.metrics
                },
                result=result,
            )
            for (name, assignment, _), result in zip(cells, results, strict=True)
        ]

    def table(
        self, points: Sequence[SweepPoint], metric: str = "total_ispi"
    ) -> Table:
        """Long-format table: one row per point."""
        if metric not in METRICS:
            raise ExperimentError(f"unknown metric {metric!r}")
        names = list(self.axes)
        table = Table(
            headers=["Benchmark", *names, metric],
            title=f"Sweep over {', '.join(names)}",
            float_format="{:.3f}",
        )
        for point in points:
            values = [self._render_value(point.parameter(n)) for n in names]
            table.add_row(point.benchmark, *values, point.metrics[metric])
        return table

    @staticmethod
    def _render_value(value: object) -> object:
        label = getattr(value, "label", None)
        return label if isinstance(label, str) else value

"""Generic parameter sweeps."""

from dataclasses import asdict

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.errors import ExperimentError
from repro.experiments.sweeps import METRICS, Sweep
from repro.obs import Observer
from repro.service import RemoteRunner
from repro.service.protocol import SweepResponse


def small_sweep():
    return Sweep(
        base=SimConfig(),
        axes={
            "policy": [FetchPolicy.ORACLE, FetchPolicy.RESUME],
            "miss_penalty_cycles": [5, 20],
        },
        metrics=("total_ispi", "miss_percent"),
    )


def rows(points):
    """Everything a point carries, in a comparable form."""
    return [
        (
            point.benchmark,
            point.parameters,
            point.metrics,
            point.result.penalties.as_dict(),
            asdict(point.result.counters),
        )
        for point in points
    ]


class CountingClient:
    """A service client that serves each sweep request from a local runner."""

    def __init__(self):
        self.requests = []

    def sweep(self, request):
        self.requests.append(request)
        local = SimulationRunner(
            trace_length=request.trace_length,
            warmup=request.warmup,
            seed=request.seed,
        )
        return SweepResponse(results=tuple(local.run_jobs(request.cells)))


class TestValidation:
    def test_unknown_field(self):
        with pytest.raises(ExperimentError):
            Sweep(base=SimConfig(), axes={"warp_factor": [9]})

    def test_empty_axes(self):
        with pytest.raises(ExperimentError):
            Sweep(base=SimConfig(), axes={})

    def test_empty_axis_values(self):
        with pytest.raises(ExperimentError):
            Sweep(base=SimConfig(), axes={"miss_penalty_cycles": []})

    def test_unknown_metric(self):
        with pytest.raises(ExperimentError):
            Sweep(
                base=SimConfig(),
                axes={"miss_penalty_cycles": [5]},
                metrics=("total_ispi", "vibes"),
            )


class TestConfigurations:
    def test_cartesian_product(self):
        configs = small_sweep().configurations()
        assert len(configs) == 4
        seen = {
            (dict(assignment)["policy"], dict(assignment)["miss_penalty_cycles"])
            for assignment, _ in configs
        }
        assert len(seen) == 4

    def test_configs_reflect_assignment(self):
        for assignment, config in small_sweep().configurations():
            params = dict(assignment)
            assert config.policy is params["policy"]
            assert config.miss_penalty_cycles == params["miss_penalty_cycles"]

    def test_base_fields_preserved(self):
        sweep = Sweep(
            base=SimConfig(prefetch=True),
            axes={"miss_penalty_cycles": [5]},
        )
        _, config = sweep.configurations()[0]
        assert config.prefetch


class TestRun:
    @pytest.fixture(scope="class")
    def points(self, runner):
        return small_sweep().run(runner, benchmarks=["li"])

    def test_point_count(self, points):
        assert len(points) == 4

    def test_metrics_populated(self, points):
        for point in points:
            assert point.metrics["total_ispi"] > 0
            assert point.metrics["miss_percent"] > 0

    def test_penalty_effect_visible(self, points):
        """20-cycle points must cost more than matched 5-cycle points."""
        by_key = {
            (p.parameter("policy"), p.parameter("miss_penalty_cycles")): p
            for p in points
        }
        for policy in (FetchPolicy.ORACLE, FetchPolicy.RESUME):
            assert (
                by_key[(policy, 20)].metrics["total_ispi"]
                > by_key[(policy, 5)].metrics["total_ispi"]
            )

    def test_parameter_lookup(self, points):
        assert points[0].parameter("miss_penalty_cycles") in (5, 20)
        with pytest.raises(ExperimentError):
            points[0].parameter("nope")

    def test_table_rendering(self, points):
        table = small_sweep().table(points, metric="total_ispi")
        text = table.render()
        assert "li" in text
        assert "Oracle" in text  # policy rendered via its label
        assert len(table.rows) == 4

    def test_table_unknown_metric(self, points):
        with pytest.raises(ExperimentError):
            small_sweep().table(points, metric="vibes")


class TestRunners:
    """Every runner with ``run_jobs`` runs a sweep to the same points."""

    BENCHMARKS = ("li", "doduc")

    @pytest.fixture(scope="class")
    def reference(self, runner):
        return rows(small_sweep().run(runner, benchmarks=self.BENCHMARKS))

    def test_parallel_runner(self, runner, reference, plan_pool):
        # A fresh runner on the plan pool: Sweep.run plans every cell.
        pooled = SimulationRunner(
            trace_length=runner.trace_length,
            warmup=runner.warmup,
            seed=runner.seed,
            observer=Observer(),
        )
        points = small_sweep().run(pooled, benchmarks=self.BENCHMARKS)
        assert rows(points) == reference
        assert pooled.observer.registry.value("sweep.plan_tasks") == len(points)

    def test_remote_runner_sends_one_request(self, runner, reference):
        client = CountingClient()
        remote = RemoteRunner(
            client,
            trace_length=runner.trace_length,
            warmup=runner.warmup,
            seed=runner.seed,
        )
        points = small_sweep().run(remote, benchmarks=self.BENCHMARKS)
        assert len(client.requests) == 1
        assert len(client.requests[0].cells) == len(points) == 8
        assert rows(points) == reference


class TestMetricRegistry:
    def test_all_metrics_computable(self, runner):
        result = runner.run("li", SimConfig())
        for name, fn in METRICS.items():
            value = fn(result)
            assert isinstance(value, float), name

"""A planned experiment on ``--server`` is one request.

``run_table5`` is defined planned, so on a ``RemoteRunner`` its
recording pass collects every cell and ``RemoteRunner.run_many`` sends
them as one ``SweepRequest``; the real pass is then served the held
results with no request.  It must match an unplanned remote run and a
local run, report each dead cell once, and fall back to per-call
requests when the service refuses the plan.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.runner import SimulationRunner
from repro.experiments.depth import run_table5
from repro.report import experiment_to_json
from repro.service import RemoteRunner, ServiceClient

from tests.service.conftest import REPO_ROOT, SEED, TRACE, WARMUP

BENCHMARKS = ("li", "doduc")
#: Cells in one Table 5 over BENCHMARKS: 3 depths x 5 policies each.
CELLS = 15 * len(BENCHMARKS)


def _runner(address, **kwargs):
    return RemoteRunner(
        ServiceClient(address, backoff_base=0.0),
        trace_length=TRACE, warmup=WARMUP, seed=SEED, **kwargs,
    )


def _requests(address) -> int:
    return ServiceClient(address).healthz()["counters"]["service.requests"]


def _table(runner, benchmarks=BENCHMARKS, planned=True):
    experiment = run_table5 if planned else run_table5.__wrapped__
    return experiment_to_json(experiment(runner, benchmarks=benchmarks))


def _failures_per_call(runner) -> list[list]:
    """Log ``runner.failures`` after every ``run_jobs`` call."""
    calls: list[list] = []
    run_jobs = runner.run_jobs

    def logged(jobs):
        results = run_jobs(jobs)
        calls.append(list(runner.failures))
        return results

    runner.run_jobs = logged
    return calls


def test_one_request_per_table_cold_and_warm(start_server):
    server = start_server()
    runner = _runner(server.address)
    cold = _table(runner)
    assert _requests(server.address) == 1
    assert runner.stats["cells"] == CELLS
    assert runner.stats["cells_simulated"] == CELLS
    assert _table(runner) == cold
    assert _requests(server.address) == 2
    assert runner.stats["store_hits"] == CELLS
    assert runner._held == {}


def test_matches_unplanned_and_local_runs(start_server):
    server = start_server()
    planned = _table(_runner(server.address))
    before = _requests(server.address)
    unplanned = _table(_runner(server.address), planned=False)
    # One request per (benchmark, depth) without a plan.
    assert _requests(server.address) - before == 3 * len(BENCHMARKS)
    local = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=SEED)
    assert planned == unplanned == _table(local)


def test_dead_cells_are_reported_once(tmp_path, start_server):
    # The 2nd and 7th li cells die: depth 1 and depth 2, so two calls.
    faults = ("--inject-faults", "dispatch:bug:li:2,dispatch:bug:li:7")
    runners, calls = {}, {}
    for planned in (True, False):
        server = start_server(
            tmp_path / f"data-{planned}", *faults, "--retries", "0",
            "--fault-state", str(tmp_path / f"faults-{planned}"),
        )
        runners[planned] = _runner(server.address, on_error="skip")
        calls[planned] = _failures_per_call(runners[planned])
        _table(runners[planned], benchmarks=("li",), planned=planned)
    # Unplanned, each call appends its own dead cell (one in each of the
    # first two calls); planned, the plan's request reports both.  Both
    # runs end listing each dead cell once.
    assert [len(call) for call in calls[False]] == [1, 2, 2]
    unplanned = [f.as_dict() for f in runners[False].failures]
    assert [f["benchmark"] for f in unplanned] == ["li", "li"]
    assert [f.as_dict() for f in runners[True].failures] == unplanned


def test_refused_plan_falls_back_to_per_call_requests(start_server):
    # Five cells fit, so each unplanned call is admitted; a plan of 15
    # never is.
    server = start_server(None, "--queue-limit", "5")
    runner = _runner(server.address)
    with pytest.warns(RuntimeWarning, match="planned request for 15 cells"):
        fallback = _table(runner, benchmarks=("li",))
    assert runner.plan_fallbacks == 1
    counters = ServiceClient(server.address).healthz()["counters"]
    assert counters["service.rejected"] >= 1
    local = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=SEED)
    assert fallback == _table(local, benchmarks=("li",))


def test_cli_table5_sends_one_request(start_server):
    server = start_server()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "table5",
            "--trace-length", str(TRACE), "--warmup", str(WARMUP),
            "--seed", str(SEED), "--server", server.address,
        ],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Table 5" in proc.stdout
    assert _requests(server.address) == 1

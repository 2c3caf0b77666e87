"""The benchmark's workloads; each pass runs in a fresh process.

``run.py`` starts this file once per set-up probe and once per pass, in
a scratch directory it owns, and reads the JSON line printed last::

    python3 benchmarks/e2e/workloads.py setup WORKLOAD --seed N
    python3 benchmarks/e2e/workloads.py pass WORKLOAD --seed N [--spans PATH]

Every cell simulates ``--trace-length`` instructions (default the
paper's 200k); statistics cover what follows the runner's default
warmup (a quarter of the trace, capped at 50k), so caches and
predictors are warm when measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(SRC))

from layers import SIM_COUNTERS, Instruments  # noqa: E402
from spans import SpanRecorder  # noqa: E402

TRACE_LENGTH = 200_000

#: PhaseProfiler phase -> the benchmark spans timing the same calls.
PROFILED_PHASES = {
    "build_program": ("program.build",),
    "generate_trace": ("trace.generate",),
    "build_stream": ("stream.build",),
    "simulate": ("engine.event", "engine.vector"),
}

#: Span name -> the per-layer metric holding its self time in seconds.
LAYER_SECONDS = {
    "program.build": "program.build_s",
    "trace.generate": "trace.generate_s",
    "service.spawn": "service.spawn_s",
    "stream.build": "stream.build_s",
    "runner": "runner.self_s",
    "engine.event": "engine.event.s",
    "engine.vector": "engine.vector.s",
    "experiment": "experiment.self_s",
    "report.render": "report.render_s",
    "report.export": "report.export_s",
    "service.request": "service.request_s",
    "protocol.encode": "protocol.encode_s",
    "protocol.decode": "protocol.decode_s",
}

#: Units of the workload-reported numbers that are not plain counts.
COUNT_UNITS = {
    "service.hit_ratio": "frac",
    "service.cold_cells_per_s": "1/s",
    "service.warm_p90_s": "s",
    "service.warm_p95_s": "s",
}


def cell_record(result) -> list:
    """A cell's penalties and counters, in a canonical JSON-ready form."""
    return [result.program, result.penalties.as_dict(), asdict(result.counters)]


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Max RSS of this process and of every descendant it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class LocalWorkload:
    """A workload run in this process through one ``SimulationRunner``."""

    programs: tuple[str, ...] = ()

    def __init__(self, seed: int, trace_length: int, inst: Instruments) -> None:
        from repro.core.runner import SimulationRunner
        from repro.obs import Observer, PhaseProfiler

        self.inst = inst
        self.observer = (
            Observer(profiler=PhaseProfiler()) if inst.recorder else None
        )
        self.runner = SimulationRunner(
            trace_length=trace_length, seed=seed, observer=self.observer
        )
        #: (benchmark, config) -> first result, in request order.
        self.cells: dict = {}
        inst.trace_call(self.runner, "run", "runner", sink=self._keep)

    def _keep(self, args, result) -> None:
        self.inst.count("runner.cells_requested")
        self.cells.setdefault(args, result)

    def setup(self) -> None:
        # Imports are set-up work; the pass would pay for them otherwise.
        import repro.experiments.registry  # noqa: F401
        import repro.experiments.sweeps  # noqa: F401
        import repro.report  # noqa: F401

        for name in self.programs:
            self.runner.prepared(name)

    def install_traced_layers(self) -> None:
        import repro.core.runner as runner_module
        import repro.program.workloads as workloads_module

        self.inst.trace_call(workloads_module, "build_workload", "program.build")
        self.inst.trace_call(runner_module, "generate_trace", "trace.generate")
        self.inst.trace_call(runner_module, "build_stream", "stream.build")
        self.inst.trace_simulate(runner_module)

    def attempted(self) -> int:
        return self.inst.counts["runner.cells_requested"]

    def request_metrics(self) -> dict:
        return {}

    def finish(self, groups) -> tuple[dict, list[str], int]:
        """Digests per group, plus a check of the first, middle and last
        cell: re-simulated outside the runner, on the event loop with the
        live predictor, each must match what the pass got."""
        from repro.core.engine import simulate

        cells = list(self.cells)
        problems = []
        for name, config in (cells[0], cells[len(cells) // 2], cells[-1]):
            prepared = self.runner.prepared(name)
            fresh = simulate(
                prepared.program, prepared.trace,
                replace(config, engine_backend="event"),
                warmup=self.runner.warmup,
            )
            if cell_record(fresh) != cell_record(self.cells[(name, config)]):
                problems.append(f"spot check differs: {name} {config.describe()}")
        return self.digests(groups), problems, len(problems)

    def layer_counts(self) -> dict:
        counts = dict(self.inst.counts)
        simulated = counts.get("engine.event.runs", 0) + counts.get("engine.vector.runs", 0)
        registry = self.observer.registry.as_dict()
        counts.update({
            "stream.builds": registry.get("stream.builds", 0),
            "stream.replays": registry.get("stream.replays", 0),
            "runner.cells_simulated": simulated,
            "runner.cells_distinct": len(self.cells),
        })
        return counts

    def close(self) -> None:
        pass


class PaperRepro(LocalWorkload):
    """All paper experiments on gcc (redirect-dense C) and doduc (long-block
    Fortran), rendered and exported as ``python -m repro --output-dir`` does."""

    programs = ("gcc", "doduc")

    def run(self, root) -> dict:
        from repro.experiments.registry import EXPERIMENTS, PAPER_EXPERIMENTS
        from repro.report import experiment_to_json, save_experiment_csv

        inst = self.inst
        out = Path("export")
        out.mkdir()
        groups = {}
        for eid in PAPER_EXPERIMENTS:
            before = self.attempted()
            with inst.span("experiment", eid):
                result = EXPERIMENTS[eid](self.runner, benchmarks=self.programs)
            with inst.span("report.render", eid):
                text = result.render()
            with inst.span("report.export", eid):
                (out / f"{eid}.txt").write_text(text + "\n", encoding="utf-8")
                payload = experiment_to_json(result)
                (out / f"{eid}.json").write_text(payload + "\n", encoding="utf-8")
                save_experiment_csv(result, out)
            groups[eid] = (payload, self.attempted() - before)
        return groups

    def digests(self, groups) -> dict:
        return {
            eid: {"digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
                  "cells": cells}
            for eid, (payload, cells) in groups.items()
        }


class DesignSweep(LocalWorkload):
    """Cache-geometry sweep on the architectural branch schedule, so every
    cell replays a recorded prediction stream on the vector backend.

    A coverage workload for the replay and vector paths, not observed
    traffic: the repository's own sweep example keeps the default timing
    schedule, which runs on the event loop."""

    programs = ("doduc", "fpppp", "gcc", "li", "groff", "cfront")

    def run(self, root) -> dict:
        from repro.config import ALL_POLICIES, CacheConfig, SimConfig
        from repro.experiments.sweeps import Sweep
        from repro.report import table_to_csv

        inst = self.inst
        base = SimConfig(branch_schedule="architectural")
        geometries = [
            CacheConfig(size_bytes=size, assoc=assoc)
            for size in (4096, 8192, 32768)
            for assoc in (1, 2)
        ]
        real = Sweep(base, {"cache": geometries, "policy": list(ALL_POLICIES)})
        perfect = Sweep(
            replace(base, perfect_cache=True), {"policy": list(ALL_POLICIES)}
        )
        groups = {}
        real_points, perfect_points = [], []
        for name in self.programs:
            with inst.span("experiment", name):
                cached = real.run(self.runner, [name])
                ideal = perfect.run(self.runner, [name])
            real_points += cached
            perfect_points += ideal
            groups[name] = [point.result for point in cached + ideal]
        tables = [real.table(real_points), perfect.table(perfect_points)]
        with inst.span("report.render"):
            for table in tables:
                table.render()
        with inst.span("report.export"):
            for index, table in enumerate(tables):
                Path(f"sweep_{index}.csv").write_text(
                    table_to_csv(table), encoding="utf-8"
                )
        return groups

    def digests(self, groups) -> dict:
        return {
            name: {"digest": sha256_json([cell_record(r) for r in results]),
                   "cells": len(results)}
            for name, results in groups.items()
        }


def start_server(data_dir: str, address: str) -> subprocess.Popen:
    """Spawn ``python -m repro.service`` and wait for its listening line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--data-dir", data_dir,
         "--listen", address, "--max-workers", "2"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("repro-service listening on"):
        stop_server(proc)
        raise RuntimeError(f"service did not start: {line!r}")
    return proc


def stop_server(proc: subprocess.Popen, client=None) -> None:
    """Ask the server to stop (SIGTERM without a client); wait until it has."""
    from repro.errors import ServiceError

    if proc.poll() is None:
        try:
            if client is None:
                raise ServiceError("no client")
            client.shutdown()
        except ServiceError:
            proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


class ServiceSweep:
    """Two closed-loop clients running Table 5 through ``RemoteRunner``
    against one ``python -m repro.service --max-workers 2``: the cold,
    then warm ``table5 --server`` flow of docs/service.md, per client."""

    clients = {
        "a": ("li", "tex", "idl", "porky"),
        "b": ("idl", "porky", "db++", "ditroff"),
    }
    # Chosen, not measured: 9 warm tables per cold one give 216 warm
    # requests, the fewest that leave ten samples beyond the warm p95.
    warm_repeats = 9
    # Relative to the scratch directory, so the path fits AF_UNIX limits.
    address = "unix:svc.sock"

    def __init__(self, seed: int, trace_length: int, inst: Instruments) -> None:
        self.seed = seed
        self.trace_length = trace_length
        self.inst = inst
        self.proc: subprocess.Popen | None = None
        #: client -> one list per table pass -> cell results in request order.
        self.results: dict[str, list[list]] = {cid: [] for cid in self.clients}
        #: Seconds per ``ServiceClient.sweep`` call; a client's first table
        #: sends only cold requests, every later one only warm requests.
        self.latencies: dict[str, list[float]] = {"cold": [], "warm": []}
        self._lock = threading.Lock()
        self.started = 0.0
        #: Seconds from the pass start until both cold tables were done.
        self.cold_s = 0.0

    def setup(self) -> None:
        import repro.experiments.depth  # noqa: F401
        import repro.report  # noqa: F401
        import repro.service  # noqa: F401

        with self.inst.span("service.spawn"):
            self.proc = start_server("data", self.address)

    def install_traced_layers(self) -> None:
        import repro.service.client as client_module

        self.inst.trace_call(client_module, "encode_request", "protocol.encode")
        self.inst.trace_call(client_module, "decode_response", "protocol.decode")

    def attempted(self) -> int:
        return self.inst.counts["runner.cells_requested"]

    def request_metrics(self) -> dict:
        return {
            f"{kind}_p50_s": [statistics.median(values), "s"]
            for kind, values in self.latencies.items()
        }

    def _client(self, cid: str, barrier: threading.Barrier, root, errors: list) -> None:
        from repro.experiments.depth import run_table5
        from repro.report import experiment_to_json, save_experiment_csv
        from repro.service import RemoteRunner, ServiceClient

        inst = self.inst
        runner = RemoteRunner(
            ServiceClient(self.address),
            trace_length=self.trace_length, seed=self.seed, client_id=cid,
        )
        passes = self.results[cid]
        sweep = runner.client.sweep

        def timed_sweep(request):
            started = time.perf_counter()
            with inst.span("service.request"):
                response = sweep(request)
            elapsed = time.perf_counter() - started
            with self._lock:
                self.latencies["cold" if len(passes) == 1 else "warm"].append(elapsed)
            passes[-1].extend(response.results)
            inst.count("runner.cells_requested", len(request.cells))
            return response

        runner.client.sweep = timed_sweep
        inst.trace_call(runner, "run_jobs", "runner")
        out = Path(f"export_{cid}")
        out.mkdir()
        try:
            with inst.span("client", cid, parent=root):
                for repeat in range(1 + self.warm_repeats):
                    passes.append([])
                    with inst.span("experiment", cid):
                        result = run_table5(runner, benchmarks=self.clients[cid])
                    with inst.span("report.render", cid):
                        result.render()
                    with inst.span("report.export", cid):
                        (out / "table5.json").write_text(
                            experiment_to_json(result), encoding="utf-8"
                        )
                        save_experiment_csv(result, out)
                    if repeat == 0:
                        # Both cold tables finish before any warm request.
                        if barrier.wait(timeout=600) == 0:
                            self.cold_s = time.perf_counter() - self.started
        except BaseException as exc:
            barrier.abort()
            errors.append(exc)
            raise

    def run(self, root) -> dict:
        barrier = threading.Barrier(len(self.clients))
        errors: list[BaseException] = []
        threads = [
            threading.Thread(target=self._client, args=(cid, barrier, root, errors))
            for cid in self.clients
        ]
        self.started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return self.results

    def _cold_cells(self) -> dict:
        """Each distinct cell of the cold passes -> its records, one per client."""
        cells: dict = {}
        for passes in self.results.values():
            for result in passes[0]:
                cells.setdefault((result.program, result.config), []).append(
                    cell_record(result)
                )
        return cells

    def finish(self, results) -> tuple[dict, list[str], int]:
        from repro.core.runner import SimulationRunner

        problems, failed, digests = [], 0, {}
        for cid, passes in results.items():
            cold = [cell_record(r) for r in passes[0]]
            digests[cid] = {"digest": sha256_json(cold), "cells": len(cold)}
            for index, warm in enumerate(passes[1:], 1):
                records = [cell_record(r) for r in warm]
                bad = sum(a != b for a, b in zip(records, cold))
                bad += abs(len(records) - len(cold))
                if bad:
                    problems.append(
                        f"client {cid} warm pass {index}: {bad} cells differ from cold"
                    )
                    failed += bad
        for (name, config), records in self._cold_cells().items():
            if any(record != records[0] for record in records):
                problems.append(f"clients disagree on {name} {config.describe()}")
                failed += len(records)
        # One cell re-simulated locally: the wire must be bit-identical.
        first = results["a"][0][0]
        local = SimulationRunner(trace_length=self.trace_length, seed=self.seed)
        if cell_record(local.run(first.program, first.config)) != cell_record(first):
            problems.append(f"service result differs from local run: {first.program}")
            failed += 1
        return digests, problems, failed

    def layer_counts(self) -> dict:
        from repro.service import ServiceClient

        counts = dict(self.inst.counts)
        server = ServiceClient(self.address).healthz()["counters"]
        for name in ("requests", "cells_simulated", "store_hits", "deduped",
                     "rejected", "retries"):
            counts[f"service.{name}"] = server.get(f"service.{name}", 0)
        requested = counts["runner.cells_requested"]
        counts["service.hit_ratio"] = (
            counts["service.store_hits"] + counts["service.deduped"]
        ) / requested
        counts["service.cold_cells_per_s"] = (
            counts["service.cells_simulated"] / self.cold_s
        )
        ventiles = statistics.quantiles(self.latencies["warm"], n=20)
        counts["service.warm_p90_s"] = ventiles[17]
        counts["service.warm_p95_s"] = ventiles[18]
        distinct = self._cold_cells()
        counts["runner.cells_distinct"] = len(distinct)
        for records in distinct.values():
            counters = records[0][2]
            for name, field in SIM_COUNTERS.items():
                counts[name] = counts.get(name, 0) + counters[field]
        return counts

    def close(self) -> None:
        if self.proc is not None:
            from repro.service import ServiceClient

            stop_server(self.proc, ServiceClient(self.address, retries=0))
            self.proc = None


WORKLOADS = {
    "paper_repro": PaperRepro,
    "design_sweep": DesignSweep,
    "service_sweep": ServiceSweep,
}


def layer_metrics(recorder: SpanRecorder, counts: dict, profiler, pass_span) -> dict:
    """Per-layer metrics of a traced pass: ``name -> [value, unit]``.

    ``<layer>.pct`` is the layer's self time as a percentage of all self
    time under the root span (set-up or pass) it ran in.  With one thread
    that total is the root's duration; with concurrent clients it is the
    summed time of every thread, so the shares still add up to 100.
    """
    self_times = recorder.self_times()
    roots: dict[int, int] = {}
    root_totals: dict[int, float] = {}
    for span in recorder.spans:
        root = span.id if span.parent is None else roots[span.parent]
        roots[span.id] = root
        root_totals[root] = root_totals.get(root, 0.0) + self_times[span.id]
    seconds: dict[str, float] = {}
    shares: dict[str, float] = {}
    for span in recorder.spans:
        if span.parent is None:
            continue
        seconds[span.name] = seconds.get(span.name, 0.0) + self_times[span.id]
        shares[span.name] = shares.get(span.name, 0.0) + (
            100.0 * self_times[span.id] / root_totals[roots[span.id]]
        )
    counts = dict(counts)
    engine_work = {
        backend: (
            counts.pop(f"engine.{backend}.instructions", 0),
            counts.pop(f"engine.{backend}.probes", 0),
        )
        for backend in ("event", "vector")
    }
    metrics: dict[str, list] = {}
    for name, metric in LAYER_SECONDS.items():
        metrics[metric] = [seconds.get(name, 0.0), "s"]
        metrics[f"{name}.pct"] = [shares.get(name, 0.0), "%"]
    for name, value in sorted(counts.items()):
        metrics[name] = [value, COUNT_UNITS.get(name, "count")]
    scalar = counts.get("vector.probes_scalar", 0) + counts.get("vector.walk_probes_scalar", 0)
    bulk = counts.get("vector.probes_bulk", 0) + counts.get("vector.walk_probes_bulk", 0)
    metrics["vector.scalar_fraction"] = [
        scalar / (scalar + bulk) if scalar + bulk else 0.0, "frac"
    ]
    simulated = counts.get("runner.cells_simulated", 0)
    metrics["runner.redundant_frac"] = [
        1.0 - counts["runner.cells_distinct"] / simulated if simulated else 0.0,
        "frac",
    ]
    for backend, (instructions, probes) in engine_work.items():
        busy = seconds.get(f"engine.{backend}", 0.0)
        metrics[f"engine.{backend}.sim_ips"] = [
            instructions / busy if busy else 0.0, "1/s"
        ]
        metrics[f"engine.{backend}.ns_per_probe"] = [
            1e9 * busy / probes if probes else 0.0, "ns"
        ]
    metrics["pass.coverage"] = [
        1.0 - self_times[pass_span.id] / pass_span.duration, "frac"
    ]
    if profiler is not None:
        totals = recorder.totals()
        for phase, stat in profiler.summary().items():
            if phase in PROFILED_PHASES:
                metrics[f"profile.{phase}_s"] = [stat["seconds"], "s"]
                metrics[f"spans.{phase}_s"] = [
                    sum(totals.get(name, 0.0) for name in PROFILED_PHASES[phase]),
                    "s",
                ]
    return metrics


def trace_problems(metrics: dict) -> list[str]:
    """Layer self times must account for the traced pass within 5%, and
    benchmark spans must agree with the runner's PhaseProfiler within 5%."""
    problems = []
    coverage = metrics["pass.coverage"][0]
    if coverage < 0.95:
        problems.append(f"layer spans cover only {coverage:.1%} of the traced pass")
    for phase in PROFILED_PHASES:
        profiled = metrics.get(f"profile.{phase}_s", [0.0])[0]
        spans_s = metrics.get(f"spans.{phase}_s", [0.0])[0]
        # Below 50 ms the two clocks' fixed overheads dominate the ratio.
        if profiled >= 0.05 and abs(spans_s - profiled) > 0.05 * profiled:
            problems.append(
                f"span total {spans_s:.4f}s for {phase} disagrees with "
                f"PhaseProfiler {profiled:.4f}s"
            )
    return problems


def run_setup(name: str, seed: int, trace_length: int) -> dict:
    """One fresh-interpreter set-up, timed from before the first import."""
    started = time.perf_counter()
    if name == "service_sweep":
        proc = start_server("data", ServiceSweep.address)
        elapsed = time.perf_counter() - started
        stop_server(proc)
        return {"setup_s": elapsed}
    WORKLOADS[name](seed, trace_length, Instruments()).setup()
    return {"setup_s": time.perf_counter() - started}


def run_pass(name: str, seed: int, trace_length: int, spans_path: str | None) -> dict:
    traced = spans_path is not None
    recorder = SpanRecorder() if traced else None
    inst = Instruments(recorder)
    workload = WORKLOADS[name](seed, trace_length, inst)
    if traced:
        workload.install_traced_layers()
    try:
        with inst.span("setup"):
            workload.setup()
        started = time.perf_counter()
        with inst.span("pass") as pass_span:
            output = workload.run(pass_span.id if traced else None)
        wall = time.perf_counter() - started
        counts = workload.layer_counts() if traced else {}
    finally:
        workload.close()
    # Read before the checks below, which simulate in this process.
    peak = peak_rss_mb()
    groups, problems, failed = workload.finish(output)
    result = {
        "wall_s": wall,
        "requests": workload.request_metrics(),
        "peak_rss_mb": peak,
        "attempted": workload.attempted(),
        "groups": groups,
        "problems": problems,
        "failed": failed,
    }
    if traced:
        observer = getattr(workload, "observer", None)
        profiler = observer.profiler if observer is not None else None
        metrics = layer_metrics(recorder, counts, profiler, pass_span)
        result["problems"] += trace_problems(metrics)
        result["layers"] = metrics
        recorder.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-length", type=int, default=TRACE_LENGTH)
    parser.add_argument("--spans", default=None, help="trace the pass; write spans here")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = run_setup(args.workload, args.seed, args.trace_length)
    else:
        result = run_pass(args.workload, args.seed, args.trace_length, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

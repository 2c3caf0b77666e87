"""Checkpoint store: round-trip, invalidation, and resume semantics.

``--checkpoint DIR`` / ``checkpoint_dir=`` open a
:class:`~repro.core.store.ResultStore` keyed by ``cell_digest``, the same
store the sweep service keeps under ``--data-dir``.
"""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core import store as store_module
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.runner import SimulationRunner
from repro.core.store import RESULT_STORE_VERSION, ResultStore, cell_digest
from repro.errors import CheckpointError
from repro.obs import Observer
from repro.trace import generator

TRACE = 3_000
WARMUP = 600

ORACLE = SimConfig(policy=FetchPolicy.ORACLE)
RESUME = SimConfig(policy=FetchPolicy.RESUME)


def _pooled(checkpoint):
    """An observed runner with a checkpoint store."""
    return SimulationRunner(
        trace_length=TRACE, warmup=WARMUP, seed=7, observer=Observer(),
        checkpoint_dir=checkpoint,
    )


def _cell(benchmark="li", config=ORACLE, trace=TRACE, warmup=WARMUP, seed=7):
    """The full lookup key for one cell: digest plus identity."""
    return (
        cell_digest(benchmark, config, trace, warmup, seed),
        benchmark, config, trace, warmup, seed,
    )


class TestJournal:
    def test_disabled_is_noop(self):
        store = ResultStore(None)
        assert not store.enabled
        assert store.load(*_cell()) is None
        assert store.entries() == 0
        with pytest.raises(CheckpointError):
            store.entry_path(_cell()[0])

    def test_round_trip(self, tmp_path):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result = runner.run("li", ORACLE)
        store = ResultStore(tmp_path)
        store.store(*_cell(), result)
        assert store.entries() == 1
        loaded = store.load(*_cell())
        assert loaded is not None
        assert loaded.penalties.as_dict() == result.penalties.as_dict()
        assert loaded.counters.instructions == result.counters.instructions
        # Every keyed parameter invalidates: change one, miss.
        assert store.load(*_cell(config=RESUME)) is None
        assert store.load(*_cell(trace=TRACE + 1)) is None
        assert store.load(*_cell(warmup=WARMUP + 1)) is None
        assert store.load(*_cell(seed=8)) is None

    def test_generator_bump_is_a_miss(self, tmp_path, monkeypatch):
        # A new trace generator produces different traces for the same
        # (trace length, seed): a resume across the bump must re-simulate.
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result = runner.run("li", ORACLE)
        store = ResultStore(tmp_path)
        store.store(*_cell(), result)
        assert store.load(*_cell()) is not None
        monkeypatch.setattr(
            store_module, "GENERATOR_VERSION", generator.GENERATOR_VERSION + 1
        )
        assert store.load(*_cell()) is None

    def test_corruption_is_a_miss(self, tmp_path):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result = runner.run("li", ORACLE)
        store = ResultStore(tmp_path)
        store.store(*_cell(), result)
        store.entry_path(_cell()[0]).write_bytes(b"\x00torn write\x00")
        assert store.load(*_cell()) is None

    def test_store_failure_is_nonfatal(self, tmp_path):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result = runner.run("li", ORACLE)
        target = tmp_path / "blocked"
        target.write_text("a file where the store dir should go")
        store = ResultStore(target)
        with pytest.warns(RuntimeWarning, match="result store disabled"):
            store.store(*_cell(), result)  # warns, never raises
        assert not store.enabled
        assert store.load(*_cell()) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second failure stays quiet
            store.store(*_cell(config=RESUME), result)
        assert store.store_failures == 1


class TestConcurrentWriters:
    """The store under contention: stores never tear.  Threads stand in
    for processes — ``os.replace`` makes no distinction."""

    def test_concurrent_stores_never_torn(self, tmp_path):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result_a = runner.run("li", ORACLE)
        result_b = runner.run("li", RESUME)
        assert result_a.penalties.as_dict() != result_b.penalties.as_dict()
        store = ResultStore(tmp_path)
        writers = 8
        start = threading.Barrier(writers + 1)
        stop = threading.Event()
        torn: list[object] = []

        def write(result):
            start.wait()
            for _ in range(25):
                store.store(*_cell(), result)

        def read():
            start.wait()
            reader = ResultStore(tmp_path)
            while not stop.is_set():
                loaded = reader.load(*_cell())
                if loaded is None:
                    continue  # not yet published: a miss, never an error
                penalties = loaded.penalties.as_dict()
                if penalties not in (
                    result_a.penalties.as_dict(),
                    result_b.penalties.as_dict(),
                ):
                    torn.append(penalties)

        threads = [
            threading.Thread(
                target=write, args=(result_a if i % 2 else result_b,)
            )
            for i in range(writers)
        ]
        reader_thread = threading.Thread(target=read)
        for thread in threads:
            thread.start()
        reader_thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        reader_thread.join()
        assert torn == []
        # The settled entry is exactly one writer's payload, in full.
        final = store.load(*_cell())
        assert final is not None
        assert final.penalties.as_dict() in (
            result_a.penalties.as_dict(),
            result_b.penalties.as_dict(),
        )
        # No temp files left behind by the racing writers.
        leftovers = [
            path
            for path in (tmp_path / f"v{RESULT_STORE_VERSION}").rglob("*")
            if path.is_file() and path.suffix != ".pkl"
        ]
        assert leftovers == []


class TestResume:
    def test_serial_resume_skips_simulation(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        first = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            checkpoint_dir=checkpoint,
        )
        reference = first.run("li", ORACLE)
        # Second runner, same store, with a bug fault armed on the
        # simulate phase: the checkpoint hit must return before the fault
        # could ever fire, proving nothing was re-simulated.
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="bug")],
            state_dir=str(tmp_path / "faults"),
        )
        second = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            checkpoint_dir=checkpoint, fault_plan=plan,
        )
        resumed = second.run("li", ORACLE)
        assert resumed.penalties.as_dict() == reference.penalties.as_dict()
        assert plan.fired_total() == 0

    def test_parallel_resume_is_bit_identical(self, tmp_path, plan_pool):
        checkpoint = str(tmp_path / "ckpt")
        jobs = [("li", ORACLE), ("doduc", ORACLE), ("li", RESUME)]
        first = _pooled(checkpoint)
        reference = first.run_jobs(jobs)
        registry = first.observer.registry
        assert registry.value("sweep.plan_tasks") == len(jobs)
        assert registry.value("checkpoint.stores") == len(jobs)
        second = _pooled(checkpoint)
        resumed = second.run_jobs(jobs)
        assert second.observer.registry.value("checkpoint.hits") == len(jobs)
        for a, b in zip(reference, resumed, strict=True):
            assert a.penalties.as_dict() == b.penalties.as_dict()
            assert a.total_ispi == b.total_ispi

    def test_partial_journal_finishes_remainder(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        warm = _pooled(checkpoint)
        warm.run_jobs([("li", ORACLE)])
        runner = _pooled(checkpoint)
        results = runner.run_jobs([("li", ORACLE), ("doduc", ORACLE)])
        assert runner.observer.registry.value("checkpoint.hits") == 1
        assert results[0].program == "li"
        assert results[1].program == "doduc"


class TestKillAndResumeCli:
    """The acceptance scenario: a sweep killed mid-run and restarted with
    ``--checkpoint`` must produce output identical to an undisturbed run."""

    ARGS = ["table5", "--trace-length", "2000", "--seed", "11"]

    @staticmethod
    def _tables(output):
        """CLI output minus the wall-clock '[... regenerated in Xs]' line."""
        return "\n".join(
            line for line in output.splitlines()
            if not line.startswith("[")
        )

    @staticmethod
    def _run(extra, cwd):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *TestKillAndResumeCli.ARGS,
             *extra],
            env=env, cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )

    def test_killed_then_resumed_output_is_identical(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        # Reference: table5 end to end, no checkpointing involved.
        proc = self._run([], tmp_path)
        reference, _ = proc.communicate(timeout=180)
        assert proc.returncode == 0

        # Victim: same sweep with a checkpoint store, killed mid-run.
        victim = self._run(["--checkpoint", checkpoint], tmp_path)
        deadline = time.monotonic() + 60
        store = ResultStore(checkpoint)
        while store.entries() < 5 and time.monotonic() < deadline:
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
        victim.communicate()
        completed = store.entries()
        assert 0 < completed, "victim was killed before storing anything"

        # Resume: must load the stored cells and finish the rest.
        resumed = self._run(["--checkpoint", checkpoint], tmp_path)
        output, _ = resumed.communicate(timeout=180)
        assert resumed.returncode == 0
        assert store.entries() > completed
        assert self._tables(output) == self._tables(reference)

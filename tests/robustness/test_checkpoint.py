"""Checkpoint journal: round-trip, invalidation, and resume semantics."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core import checkpoint
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointJournal,
    config_key,
)
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.parallel import ParallelRunner
from repro.core.runner import SimulationRunner
from repro.errors import CheckpointError
from repro.trace import generator

TRACE = 3_000
WARMUP = 600

ORACLE = SimConfig(policy=FetchPolicy.ORACLE)
RESUME = SimConfig(policy=FetchPolicy.RESUME)


class TestConfigKey:
    def test_stable_and_discriminating(self):
        assert config_key(ORACLE) == config_key(SimConfig(policy=FetchPolicy.ORACLE))
        assert config_key(ORACLE) != config_key(RESUME)
        assert config_key(ORACLE) != config_key(
            SimConfig(policy=FetchPolicy.ORACLE, prefetch=True)
        )


class TestJournal:
    def test_disabled_is_noop(self):
        journal = CheckpointJournal(None)
        assert not journal.enabled
        assert journal.load("li", ORACLE, TRACE, WARMUP, 7) is None
        assert journal.completed() == 0
        with pytest.raises(CheckpointError):
            journal.entry_path("li", ORACLE, TRACE, WARMUP, 7)

    def test_unsafe_benchmark_names_rejected(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        for name in ("", "../escape", ".hidden"):
            with pytest.raises(CheckpointError):
                journal.entry_path(name, ORACLE, TRACE, WARMUP, 7)

    def test_round_trip(self, tmp_path):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result = runner.run("li", ORACLE)
        journal = CheckpointJournal(tmp_path)
        journal.store("li", ORACLE, TRACE, WARMUP, 7, result)
        assert journal.completed() == 1
        loaded = journal.load("li", ORACLE, TRACE, WARMUP, 7)
        assert loaded is not None
        assert loaded.penalties.as_dict() == result.penalties.as_dict()
        assert loaded.counters.instructions == result.counters.instructions
        # Every keyed parameter invalidates: change one, miss.
        assert journal.load("li", RESUME, TRACE, WARMUP, 7) is None
        assert journal.load("li", ORACLE, TRACE + 1, WARMUP, 7) is None
        assert journal.load("li", ORACLE, TRACE, WARMUP + 1, 7) is None
        assert journal.load("li", ORACLE, TRACE, WARMUP, 8) is None

    def test_generator_bump_is_a_miss(self, tmp_path, monkeypatch):
        # A new trace generator produces different traces for the same
        # (trace length, seed): a resume across the bump must re-simulate.
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result = runner.run("li", ORACLE)
        journal = CheckpointJournal(tmp_path)
        journal.store("li", ORACLE, TRACE, WARMUP, 7, result)
        assert journal.load("li", ORACLE, TRACE, WARMUP, 7) is not None
        monkeypatch.setattr(
            checkpoint,
            "GENERATOR_VERSION",
            generator.GENERATOR_VERSION + 1,
            raising=False,
        )
        assert journal.load("li", ORACLE, TRACE, WARMUP, 7) is None

    def test_corruption_is_a_miss(self, tmp_path):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result = runner.run("li", ORACLE)
        journal = CheckpointJournal(tmp_path)
        journal.store("li", ORACLE, TRACE, WARMUP, 7, result)
        path = journal.entry_path("li", ORACLE, TRACE, WARMUP, 7)
        path.write_bytes(b"\x00torn write\x00")
        assert journal.load("li", ORACLE, TRACE, WARMUP, 7) is None

    def test_store_failure_is_nonfatal(self, tmp_path):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result = runner.run("li", ORACLE)
        target = tmp_path / "blocked"
        target.write_text("a file where the journal dir should go")
        journal = CheckpointJournal(target)
        journal.store("li", ORACLE, TRACE, WARMUP, 7, result)  # no raise
        assert journal.load("li", ORACLE, TRACE, WARMUP, 7) is None


class TestConcurrentWriters:
    """The journal under contention: claims elect one owner, stores
    never tear.  Threads stand in for processes — ``O_EXCL`` and
    ``os.replace`` make no distinction."""

    def test_claim_elects_exactly_one_winner(self, tmp_path):
        contenders = 8
        start = threading.Barrier(contenders)
        outcomes: list[bool] = []
        lock = threading.Lock()

        def contend():
            journal = CheckpointJournal(tmp_path)  # one instance per writer
            start.wait()
            won = journal.claim("li", ORACLE, TRACE, WARMUP, 7)
            with lock:
                outcomes.append(won)

        threads = [
            threading.Thread(target=contend) for _ in range(contenders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count(True) == 1
        assert outcomes.count(False) == contenders - 1
        # A different cell is an independent election.
        assert CheckpointJournal(tmp_path).claim(
            "li", RESUME, TRACE, WARMUP, 7
        )

    def test_claim_fails_open(self, tmp_path):
        # Disabled journal: everyone proceeds.
        assert CheckpointJournal(None).claim("li", ORACLE, TRACE, WARMUP, 7)
        # Unwritable journal (root is a file): proceed rather than wedge.
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the journal dir should go")
        assert CheckpointJournal(blocked).claim(
            "li", ORACLE, TRACE, WARMUP, 7
        )

    def test_concurrent_stores_never_torn(self, tmp_path):
        runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        result_a = runner.run("li", ORACLE)
        result_b = runner.run("li", RESUME)
        assert result_a.penalties.as_dict() != result_b.penalties.as_dict()
        journal = CheckpointJournal(tmp_path)
        writers = 8
        start = threading.Barrier(writers + 1)
        stop = threading.Event()
        torn: list[object] = []

        def write(result):
            start.wait()
            for _ in range(25):
                journal.store("li", ORACLE, TRACE, WARMUP, 7, result)

        def read():
            start.wait()
            reader = CheckpointJournal(tmp_path)
            while not stop.is_set():
                loaded = reader.load("li", ORACLE, TRACE, WARMUP, 7)
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
        final = journal.load("li", ORACLE, TRACE, WARMUP, 7)
        assert final is not None
        assert final.penalties.as_dict() in (
            result_a.penalties.as_dict(),
            result_b.penalties.as_dict(),
        )
        # No temp files left behind by the racing writers.
        leftovers = [
            path
            for path in (tmp_path / f"v{CHECKPOINT_FORMAT_VERSION}").rglob("*")
            if path.is_file() and path.suffix not in (".pkl", ".claim")
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
        # Second runner, same journal, with a bug fault armed on the
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

    def test_parallel_resume_is_bit_identical(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        jobs = [("li", ORACLE), ("doduc", ORACLE), ("li", RESUME)]
        first = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2,
            checkpoint_dir=checkpoint,
        )
        reference = first.run_jobs(jobs)
        assert first.metrics.value("checkpoint.stores") == len(jobs)
        second = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2,
            checkpoint_dir=checkpoint,
        )
        resumed = second.run_jobs(jobs)
        assert second.metrics.value("checkpoint.hits") == len(jobs)
        for a, b in zip(reference, resumed, strict=True):
            assert a.penalties.as_dict() == b.penalties.as_dict()
            assert a.total_ispi == b.total_ispi

    def test_partial_journal_finishes_remainder(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        warm = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2,
            checkpoint_dir=checkpoint,
        )
        warm.run_jobs([("li", ORACLE)])
        runner = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2,
            checkpoint_dir=checkpoint,
        )
        results = runner.run_jobs([("li", ORACLE), ("doduc", ORACLE)])
        assert runner.metrics.value("checkpoint.hits") == 1
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

        # Victim: same sweep with a journal, killed mid-run.
        victim = self._run(["--checkpoint", checkpoint], tmp_path)
        deadline = time.monotonic() + 60
        journal = CheckpointJournal(checkpoint)
        while journal.completed() < 5 and time.monotonic() < deadline:
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
        victim.communicate()
        completed = journal.completed()
        assert 0 < completed, "victim was killed before journalling anything"

        # Resume: must replay the journalled cells and finish the rest.
        resumed = self._run(["--checkpoint", checkpoint], tmp_path)
        output, _ = resumed.communicate(timeout=180)
        assert resumed.returncode == 0
        assert journal.completed() > completed
        assert self._tables(output) == self._tables(reference)

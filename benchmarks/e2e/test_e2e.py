"""Harness tests for the end-to-end benchmark, at a tiny trace length.

Run from the repository root: ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compare import verdict
from run import ROOT, WORKLOADS, declared_metrics
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
TINY = "3000"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--trace-length", TINY, *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_lines(proc: subprocess.CompletedProcess) -> list[dict]:
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def traced_run() -> subprocess.CompletedProcess:
    return bench("--trace")


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
def test_every_workload_emits_exactly_the_declared_metrics(traced, traced_run):
    proc = traced_run if traced else bench()
    assert proc.returncode == 0, proc.stderr
    declared = declared_metrics()["per_layer" if traced else "end_to_end"]
    expected = {spec["name"]: spec["unit"] for spec in declared}
    lines = result_lines(proc)
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    text = [line.split() for line in proc.stdout.splitlines() if not line.startswith(("{", "=", "["))]
    printed = {fields[0] for fields in text if len(fields) == 3}
    assert set(expected) <= printed


def assert_children_fit(spans: list[dict]) -> None:
    """Each span's children's self times sum to at most its duration."""
    by_id = {span["id"]: span for span in spans}
    children: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + span["self"]
    for parent, total in children.items():
        assert total <= by_id[parent]["end"] - by_id[parent]["start"] + 1e-9, by_id[parent]


def test_child_self_times_fit_inside_their_parent(traced_run, tmp_path):
    recorder = SpanRecorder()
    with recorder.span("root"):
        with recorder.span("a"):
            time.sleep(0.002)
            with recorder.span("a1"):
                time.sleep(0.002)
        with recorder.span("b"):
            time.sleep(0.002)
    root, a, a1, b = recorder.spans
    self_times = recorder.self_times()
    assert self_times[a.id] == pytest.approx(a.duration - a1.duration)
    assert self_times[root.id] == pytest.approx(
        root.duration - a.duration - b.duration
    )
    recorder.write(tmp_path / "spans.json")
    assert_children_fit(json.loads((tmp_path / "spans.json").read_text())["spans"])
    for workload in WORKLOADS:
        path = ROOT / ".bench" / f"spans_{workload}.json"
        assert_children_fit(json.loads(path.read_text(encoding="utf-8"))["spans"])


def test_corrupted_digest_fails_the_run(tmp_path):
    expected = tmp_path / "expected.json"
    recorded = bench("--workload", "paper_repro", "--record-expected",
                     "--expected", str(expected))
    assert recorded.returncode == 0, recorded.stderr
    clean = bench("--workload", "paper_repro", "--expected", str(expected))
    assert clean.returncode == 0, clean.stderr
    assert "digest: match" in clean.stdout

    data = json.loads(expected.read_text(encoding="utf-8"))
    data["seeds"]["1995"]["paper_repro"]["table5"] = "0" * 64
    expected.write_text(json.dumps(data), encoding="utf-8")
    broken = bench("--workload", "paper_repro", "--expected", str(expected))
    assert broken.returncode != 0
    assert "digest: MISMATCH" in broken.stdout
    [line] = result_lines(broken)
    assert line["correct"] is False and line["failed"] > 0
    error_rate = next(
        float(l.split()[1]) for l in broken.stdout.splitlines() if l.startswith("error_rate ")
    )
    assert error_rate > 0


def _digests(seed: int, tmp_path: Path) -> dict:
    workdir = tmp_path / f"seed{seed}"
    workdir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "pass", "paper_repro",
         "--seed", str(seed), "--trace-length", TINY],
        cwd=workdir, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["groups"]


def test_seed_changes_the_generated_inputs(tmp_path):
    first = _digests(1, tmp_path)
    assert _digests(2, tmp_path) != first


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "paper_repro"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert result_lines(proc) == []


def test_compare_rules():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert verdict(base, [v * 0.8 for v in base], 0.1, lower=True)["status"] == "improved"
    assert verdict(base, [v * 1.2 for v in base], 0.1, lower=True)["status"] == "regressed"
    assert verdict(base, list(base), 0.1, lower=True)["status"] == "unchanged"
    wide = [5.0, 15.0, 10.0, 6.0, 14.0]
    assert verdict(wide, [v * 1.05 for v in wide], 0.1, lower=True)["status"] == "unresolved"

"""The repro-experiment command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.experiments == ["table2"]
        assert args.trace_length == 200_000
        assert args.seed == 1995

    def test_options(self):
        args = build_parser().parse_args(
            ["figure1", "--trace-length", "5000", "--seed", "3", "--warmup", "100"]
        )
        assert args.trace_length == 5000
        assert args.seed == 3
        assert args.warmup == 100


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(EXPERIMENTS)

    def test_no_experiments_is_error(self, capsys):
        assert main([]) == 2
        assert "no experiments" in capsys.readouterr().err

    def test_unknown_experiment_is_error(self, capsys):
        assert main(["table99"]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.slow
    def test_runs_one_experiment(self, capsys):
        code = main(["table2", "--trace-length", "8000", "--warmup", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "doduc" in out
        assert "regenerated" in out


class TestObservabilityFlags:
    def test_parser_accepts_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "table5",
                "--trace-events", str(tmp_path / "ev.jsonl"),
                "--metrics-out", str(tmp_path / "m.json"),
            ]
        )
        assert args.trace_events.endswith("ev.jsonl")
        assert args.metrics_out.endswith("m.json")

    def test_flags_default_off(self):
        args = build_parser().parse_args(["table2"])
        assert args.trace_events is None
        assert args.metrics_out is None

    @pytest.mark.slow
    def test_metrics_and_events_written(self, tmp_path, capsys):
        import json

        events_path = str(tmp_path / "events.jsonl")
        metrics_path = str(tmp_path / "metrics.json")
        code = main(
            [
                "table3",
                "--trace-length", "8000",
                "--warmup", "0",
                "--trace-events", events_path,
                "--metrics-out", metrics_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics written" in out
        with open(metrics_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        metrics = payload["metrics"]
        assert metrics["engine.instructions"] > 0
        assert sum(
            v for k, v in metrics.items()
            if k.startswith("engine.stall_slots.")
        ) == metrics["engine.stall_slots_total"]
        assert payload["profile"]["simulate"]["calls"] >= 1

        from repro.obs.events import read_jsonl_events

        events = read_jsonl_events(events_path)
        assert events, "expected a non-empty event stream"

    @pytest.mark.slow
    def test_metrics_without_events(self, tmp_path):
        import json

        metrics_path = str(tmp_path / "metrics.json")
        code = main(
            [
                "table2",
                "--trace-length", "8000",
                "--warmup", "1000",
                "--metrics-out", metrics_path,
            ]
        )
        assert code == 0
        with open(metrics_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        # table2 never simulates: registry is empty but the file is valid
        assert payload["metrics"] == {}
        assert "build_program" in payload["profile"]

    def test_adaptive_cells_run_under_every_observer(self, tmp_path):
        """``repro adaptive`` forks engines under an event sink and a
        metrics observer; the forks buffer their observation, so the run
        finishes and the committed timeline's policy switches are in the
        event file."""
        import json
        import os
        import subprocess
        import sys

        from repro.obs.events import PolicySwitch, read_jsonl_events

        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "adaptive",
                "--trace-length", "4000",
                "--trace-events", "ev.jsonl",
                "--metrics-out", "m.json",
            ],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        events = read_jsonl_events(str(tmp_path / "ev.jsonl"))
        switches = [e for e in events if isinstance(e, PolicySwitch)]
        assert switches
        with open(tmp_path / "m.json", encoding="utf-8") as handle:
            metrics = json.load(handle)["metrics"]
        assert metrics["adaptive.switches"] == len(switches)

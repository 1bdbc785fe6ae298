"""Tests for the command-line interface."""

import multiprocessing

import pytest

from repro.cli import main


class TestDescribe:
    def test_describe_traffic(self, capsys):
        assert main(["describe-traffic"]) == 0
        out = capsys.readouterr().out
        assert "[congestion]" in out
        assert "derives TollNotification" in out

    def test_describe_pam(self, capsys):
        assert main(["describe-pam"]) == 0
        assert "[vigorous]" in capsys.readouterr().out

    def test_dot_traffic(self, capsys):
        assert main(["dot-traffic"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph traffic {")

    def test_dot_pam(self, capsys):
        assert main(["dot-pam"]) == 0
        assert "digraph pam" in capsys.readouterr().out


class TestRun:
    def test_run_traffic(self, capsys):
        code = main(
            ["run-traffic", "--roads", "1", "--segments", "2",
             "--minutes", "8", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events=" in out
        assert "outputs:" in out

    def test_run_traffic_baseline(self, capsys):
        code = main(
            ["run-traffic", "--segments", "1", "--minutes", "6", "--baseline"]
        )
        assert code == 0

    def test_run_pam(self, capsys):
        code = main(["run-pam", "--subjects", "2", "--minutes", "6"])
        assert code == 0
        assert "events=" in capsys.readouterr().out

    def test_validate_traffic(self, capsys):
        code = main(
            ["validate-traffic", "--segments", "1", "--minutes", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out


class TestParse:
    def test_parse_valid_query(self, capsys):
        code = main(
            ["parse",
             "DERIVE Toll(p.vid, 5) PATTERN Car p WHERE p.speed > 40 "
             "CONTEXT congestion"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DERIVE Toll" in out
        assert "CW_congestion" in out  # the pushed-down plan is printed

    def test_parse_invalid_query(self, capsys):
        code = main(["parse", "SELECT * FROM events"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStats:
    def test_human_table(self, capsys):
        code = main(
            ["stats", "--scenario", "traffic", "--segments", "2",
             "--minutes", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events=" in out
        assert "== traffic ==" in out
        assert "caesar_events_total" in out
        assert "caesar_plan_seconds" in out  # stats runs in detailed mode

    def test_prometheus_format(self, capsys):
        code = main(
            ["stats", "--scenario", "pam", "--subjects", "2",
             "--minutes", "6", "--format", "prometheus"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE caesar_events_total counter" in out
        assert 'le="+Inf"' in out

    def test_json_format(self, capsys):
        import json

        code = main(
            ["stats", "--segments", "1", "--minutes", "6",
             "--format", "json"]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["metrics"]["caesar_batches_total"] > 0

    def test_trace_file_and_timeline(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace.json"
        code = main(
            ["stats", "--segments", "1", "--minutes", "6",
             "--trace", str(trace_file), "--timeline"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "partition" in captured.out  # the ASCII timeline
        assert str(trace_file) in captured.err
        document = json.loads(trace_file.read_text())
        assert document["traceEvents"]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process backend requires the fork start method",
    )
    def test_backend_flag(self, capsys):
        code = main(
            ["stats", "--segments", "2", "--minutes", "6",
             "--backend", "process"]
        )
        assert code == 0
        assert "caesar_events_total" in capsys.readouterr().out

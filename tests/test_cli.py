"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "demo"])
        assert args.seed == 7
        assert args.command == "demo"


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo", "--channels", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal data wait = 5.5857" in out
        assert "optimal data wait = 3.7714" in out
        assert "C2 |" in out

    def test_table1_small(self, capsys):
        assert main(["table1", "--max-fanout", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "1680" in out
        assert "186" in out

    def test_fig14_small(self, capsys):
        assert main(["fig14", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 14" in out
        assert "Sorting wait" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "--trials", "2", "--data-count", "7"]) == 0
        out = capsys.readouterr().out
        assert "zipf" in out and "normal" in out

    def test_channels(self, capsys):
        assert main(["channels", "--fanout", "2"]) == 0
        out = capsys.readouterr().out
        assert "Corollary 1" in out

    def test_ablation(self, capsys):
        assert main(["ablation"]) == 0
        out = capsys.readouterr().out
        assert "nodes expanded" in out

    def test_faults_sweep(self, capsys):
        assert main(
            [
                "faults",
                "--planners", "sorting",
                "--losses", "0,0.2",
                "--requests", "60",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "differential" in out
        assert "PASS" in out
        assert "sorting" in out

    def test_faults_json_record(self, tmp_path, capsys):
        import json

        path = tmp_path / "faults.json"
        assert main(
            [
                "faults",
                "--planners", "sorting",
                "--losses", "0.1",
                "--requests", "40",
                "--burst",
                "--policy", "next-cycle",
                "--json", str(path),
            ]
        ) == 0
        record = json.loads(path.read_text())
        assert record["differential_ok"] is True
        # loss=0 is re-added even when omitted: it carries the gate.
        assert 0.0 in record["config"]["losses"]
        assert record["config"]["policy"] == "next-cycle"

    def test_bench_server_writes_record_and_passes_checks(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "server-faults", "--record"]) == 0
        out = capsys.readouterr().out
        assert "p0_differential=ok" in out
        record = json.loads((tmp_path / "BENCH_server-faults.json").read_text())
        assert record["suite"] == "server-faults"
        assert all(record["checks"].values())


class TestNetCommands:
    def test_loadtest_parity_gate_passes(self, capsys):
        assert main(
            [
                "loadtest",
                "--tuners", "60",
                "--items", "10",
                "--channels", "2",
                "--check-parity",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "parity vs simulator: EXACT" in out
        assert "0 unaccounted" in out

    def test_loadtest_lossy_fleet(self, capsys):
        assert main(
            [
                "loadtest",
                "--tuners", "40",
                "--items", "10",
                "--channels", "2",
                "--loss", "0.2",
                "--policy", "retry-parent",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "faults:" in out

    def test_loadtest_parity_refuses_lossy_air(self, capsys):
        assert main(
            ["loadtest", "--tuners", "5", "--loss", "0.1", "--check-parity"]
        ) == 2
        assert "lossless air" in capsys.readouterr().err

    def test_loadtest_batch_engine_parity(self, capsys):
        assert main(
            [
                "loadtest",
                "--engine", "batch",
                "--tuners", "80",
                "--items", "10",
                "--channels", "2",
                "--check-parity",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "batch engine" in out
        assert "parity vs scalar protocol: EXACT" in out

    def test_loadtest_batch_engine_parity_under_faults(self, capsys):
        assert main(
            [
                "loadtest",
                "--engine", "batch",
                "--tuners", "60",
                "--items", "10",
                "--channels", "2",
                "--loss", "0.2",
                "--corruption", "0.05",
                "--check-parity",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        assert "parity vs scalar protocol: EXACT" in out


class TestEngineCommands:
    def test_engine_bench_writes_record_and_passes_gates(
        self, tmp_path, monkeypatch, capsys
    ):
        import dataclasses
        import json

        from repro.bench import SUITES

        suite = SUITES["engine-batch"]
        config = {
            **suite.config, "items": 12, "walks": 4000, "sample": 300,
            "repeats": 1,
        }
        monkeypatch.setitem(
            SUITES, "engine-batch", dataclasses.replace(suite, config=config)
        )
        monkeypatch.chdir(tmp_path)
        assert main(
            ["bench", "engine-batch", "--record", "--rev", "testrev"]
        ) == 0
        out = capsys.readouterr().out
        assert "differential_exact=ok" in out
        assert "differential_faulty_exact=ok" in out
        record = json.loads((tmp_path / "BENCH_engine-batch.json").read_text())
        assert record["suite"] == "engine-batch"
        assert record["rev"] == "testrev"
        assert record["checks"]["differential_exact"] is True

    def test_serve_and_tune_then_sigint_exits_cleanly(self, tmp_path):
        """The serve command airs for real, answers a live tune, and a
        Ctrl-C (SIGINT) shuts it down with exit code 0 and flushed stats.
        """
        import os
        import re
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli",
                "serve", "--items", "10", "--channels", "2", "--port", "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"tcp://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no address in serve banner: {banner!r}"
            port = match.group(1)

            assert main(
                ["tune", "--port", port, "--key", "K003", "--tune-slot", "2"]
            ) == 0

            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "station stopped; stats flushed" in out
        assert "net.station.connections = 1" in out

    def test_tune_against_nothing_fails(self, capsys):
        assert main(["tune", "--port", "1", "--key", "K000"]) == 1
        err = capsys.readouterr().err
        assert "error: cannot reach station at 127.0.0.1:1" in err

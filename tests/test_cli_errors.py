"""CLI error paths exit non-zero with a message, never a traceback."""

from __future__ import annotations

import socket

import pytest

from repro.cli import main


@pytest.fixture()
def occupied_port():
    """A TCP port something else is already listening on."""
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    try:
        yield blocker.getsockname()[1]
    finally:
        blocker.close()


def _no_traceback(captured):
    assert "Traceback" not in captured.err
    assert "Traceback" not in captured.out


class TestServeErrors:
    def test_station_port_already_bound(self, occupied_port, capsys):
        assert main(
            [
                "serve",
                "--items", "6",
                "--channels", "2",
                "--port", str(occupied_port),
            ]
        ) == 1
        captured = capsys.readouterr()
        assert "error: cannot serve:" in captured.err
        _no_traceback(captured)

    def test_metrics_port_already_bound(self, occupied_port, capsys):
        assert main(
            [
                "serve",
                "--items", "6",
                "--channels", "2",
                "--port", "0",
                "--metrics-port", str(occupied_port),
            ]
        ) == 1
        captured = capsys.readouterr()
        assert "error: cannot serve:" in captured.err
        _no_traceback(captured)


class TestTuneErrors:
    def test_dead_station_is_a_message_not_a_traceback(self, capsys):
        assert main(["tune", "--port", "1", "--key", "K000"]) == 1
        captured = capsys.readouterr()
        assert "error: cannot reach station at 127.0.0.1:1:" in captured.err
        _no_traceback(captured)


class TestLoadtestErrors:
    def test_check_parity_refuses_lossy_air_with_exit_2(self, capsys):
        assert main(
            ["loadtest", "--tuners", "5", "--loss", "0.1", "--check-parity"]
        ) == 2
        captured = capsys.readouterr()
        assert "requires lossless air" in captured.err
        _no_traceback(captured)

    def test_parity_mismatch_exits_1(self, capsys, monkeypatch):
        def skewed_baseline(program, trace):
            return {
                "requests": len(trace),
                "access_times": [-1] * len(trace),
                "tuning_times": [-1] * len(trace),
                "mean_access_time": -1.0,
                "mean_tuning_time": -1.0,
            }

        monkeypatch.setattr(
            "repro.net.harness.simulator_baseline", skewed_baseline
        )
        assert main(
            [
                "loadtest",
                "--tuners", "10",
                "--items", "8",
                "--channels", "2",
                "--check-parity",
            ]
        ) == 1
        captured = capsys.readouterr()
        assert "parity vs simulator: MISMATCH" in captured.out
        assert (
            "error: socket fleet does not reproduce the in-process simulator"
            in captured.err.replace("\n", " ")
        )
        _no_traceback(captured)


class TestObsErrors:
    def test_timeline_on_missing_trace(self, tmp_path, capsys):
        # Uniform obs exit codes: I/O errors are 2, divergences 1.
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", "timeline", str(missing)]) == 2
        captured = capsys.readouterr()
        assert "error: cannot read trace:" in captured.err
        _no_traceback(captured)

    def test_diff_on_missing_trace(self, tmp_path, capsys):
        present = tmp_path / "a.jsonl"
        present.write_text("")
        assert main(
            ["obs", "diff", str(present), str(tmp_path / "nope.jsonl")]
        ) == 2
        captured = capsys.readouterr()
        assert "error: cannot read trace:" in captured.err
        _no_traceback(captured)


class TestLoadtestErrors:
    def test_station_death_mid_run_is_one_line(self, capsys, monkeypatch):
        import repro.net

        async def doomed(*args, **kwargs):
            raise OSError("connection reset by peer")

        monkeypatch.setattr(repro.net, "run_loadtest", doomed)
        assert main(["loadtest", "--items", "6", "--tuners", "4"]) == 1
        captured = capsys.readouterr()
        assert "error: station unreachable mid-run:" in captured.err
        assert "connection reset by peer" in captured.err
        _no_traceback(captured)


class TestClusterLoadtestErrors:
    def test_shard_death_mid_run_is_one_line(self, capsys, monkeypatch):
        import repro.cluster

        def doomed(*args, **kwargs):
            raise OSError("shard 1 hung up")

        monkeypatch.setattr(repro.cluster, "run_cluster_sweep", doomed)
        assert main(
            ["cluster", "loadtest", "--items", "8", "--tuners", "4"]
        ) == 1
        captured = capsys.readouterr()
        assert "error: shard unreachable mid-run:" in captured.err
        assert "shard 1 hung up" in captured.err
        _no_traceback(captured)

    def test_malformed_sweep_is_usage_error(self, capsys):
        assert main(
            ["cluster", "loadtest", "--sweep", "1,two,4"]
        ) == 2
        captured = capsys.readouterr()
        assert "error: --sweep" in captured.err
        _no_traceback(captured)

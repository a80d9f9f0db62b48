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


class TestLoadtestParityErrors:
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



_UNKNOWN_PLANNER = "no planner registered as 'nope'; available:"


class TestOneLineErrors:
    """Errors that once crashed with a traceback: one line, right code.

    A library error (ReproError) exits 1; a malformed flag value and
    an unreadable input file are usage or I/O errors and exit 2.
    """

    @pytest.fixture()
    def tree_file(self, tmp_path):
        import json

        from repro.io.json_io import tree_to_dict
        from repro.tree.builders import paper_example_tree

        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree_to_dict(paper_example_tree())))
        return path

    @pytest.mark.parametrize(
        ("argv", "code", "message"),
        [
            (
                ["faults", "--planners", "nope", "--requests", "5"],
                1, _UNKNOWN_PLANNER,
            ),
            (
                ["solve", "--input", "{tree}", "--planner", "nope"],
                1, _UNKNOWN_PLANNER,
            ),
            (["serve", "--planner", "nope"], 1, _UNKNOWN_PLANNER),
            (
                ["loadtest", "--planner", "nope", "--tuners", "2"],
                1, _UNKNOWN_PLANNER,
            ),
            (
                [
                    "loadtest", "--engine", "batch", "--planner", "nope",
                    "--tuners", "2",
                ],
                1, _UNKNOWN_PLANNER,
            ),
            (
                ["faults", "--losses", "abc"],
                2, "error: --losses must be comma-separated probabilities, "
                "got 'abc'",
            ),
            (
                ["solve", "--input", "{missing}"],
                2, "error: cannot read input:",
            ),
            (
                ["solve", "--input", "{not_json}"],
                2, "error: cannot read input: Expecting",
            ),
            (
                ["solve", "--input", "{not_tree}"],
                2, "error: cannot read input: not a broadcast-alloc tree "
                "document",
            ),
            (
                ["bench", "nope"],
                2, "error: unknown bench suite(s): nope (known: ",
            ),
            (
                ["obs", "spans", "{empty}"],
                2, "error: trace holds no finished spans "
                "(was it recorded with 'sched loadtest --trace'?)\n",
            ),
            (
                ["obs", "attrib", "{empty}"],
                2, "error: trace holds no finished walks to attribute "
                "(was it recorded with 'loadtest --trace'?)\n",
            ),
            (
                ["obs", "postmortem", "{not_bundle}"],
                2, "list.json is not a postmortem bundle\n",
            ),
            (["obs", "spans", "{missing}"], 2, "error: cannot read trace:"),
            (["obs", "attrib", "{missing}"], 2, "error: cannot read trace:"),
            (
                ["obs", "postmortem", "{missing}"],
                2, "error: cannot read bundle:",
            ),
            (
                ["sched", "log", "--store", "{delta_store}"],
                1, "error: version 2 is a 'delta' version; "
                "delta versions are no longer read\n",
            ),
        ],
        ids=[
            "faults-planner", "solve-planner", "serve-planner",
            "loadtest-planner", "loadtest-batch-planner", "faults-losses",
            "solve-missing-input", "solve-malformed-input",
            "solve-not-a-tree", "bench-unknown-suite", "spans-no-spans",
            "attrib-no-walks", "postmortem-not-a-bundle",
            "spans-missing-trace", "attrib-missing-trace",
            "postmortem-missing-bundle", "sched-log-delta-version",
        ],
    )
    def test_exits_with_one_error_line(
        self, argv, code, message, tree_file, tmp_path, capsys
    ):
        not_json = tmp_path / "not.json"
        not_json.write_text("{not json")
        not_tree = tmp_path / "list.json"
        not_tree.write_text("[1]")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        delta_store = tmp_path / "delta_store"
        (delta_store / "objects").mkdir(parents=True)
        (delta_store / "log.jsonl").write_text(
            '{"content_id": "%s", "kind": "snapshot", "note": "", '
            '"parent": null, "version": 1}\n'
            '{"content_id": "%s", "delta_id": "%s", "kind": "delta", '
            '"note": "", "parent": 1, "version": 2}\n'
            % ("a" * 64, "b" * 64, "c" * 64)
        )
        paths = {
            "tree": tree_file,
            "missing": tmp_path / "missing.json",
            "not_json": not_json,
            "not_tree": not_tree,
            "empty": empty,
            "not_bundle": not_tree,
            "delta_store": delta_store,
        }
        argv = [token.format(**paths) for token in argv]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        _no_traceback(captured)

    def test_unknown_planner_is_one_unquoted_line(self, capsys):
        from repro.planners import available_planners

        assert main(["approx", "plan", "--method", "nope"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: no planner registered as 'nope'; available: "
            f"{', '.join(available_planners())}\n"
        )


class TestSchedStoreErrors:
    """The sched commands read an existing store; they never make one."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["log"],
            ["show"],
            ["diff", "--from", "1", "--to", "2"],
            ["rollback", "--to", "1"],
            ["gc"],
        ],
        ids=["log", "show", "diff", "rollback", "gc"],
    )
    def test_missing_store_exits_2_and_creates_nothing(
        self, argv, tmp_path, capsys
    ):
        missing = tmp_path / "typo"
        assert main(["sched", *argv, "--store", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no schedule store at {missing}\n"
        assert captured.out == ""
        assert not missing.exists()

    def test_publishing_creates_the_store_the_commands_then_read(
        self, tmp_path, capsys
    ):
        from repro.net.harness import build_demo_plan
        from repro.sched import ScheduleStore

        root = tmp_path / "fresh"
        ScheduleStore(root).publish(
            build_demo_plan(items=6, channels=2), note="seed"
        )
        assert main(["sched", "log", "--store", str(root)]) == 0
        assert "* v1" in capsys.readouterr().out

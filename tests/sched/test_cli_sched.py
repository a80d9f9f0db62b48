"""The ``repro.cli sched`` command group over a temp-dir store."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.bench import SUITES
from repro.cli import main
from repro.net.harness import build_demo_plan
from repro.sched import ScheduleStore


@pytest.fixture()
def store(tmp_path):
    """A store holding three distinct versions."""
    handle = ScheduleStore(tmp_path / "store")
    for theta in (0.95, 0.6, 0.35):
        handle.publish(
            build_demo_plan(items=10, channels=2, theta=theta),
            note=f"theta={theta}",
        )
    return handle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLog:
    def test_log_lists_versions_head_first(self, store, capsys):
        code, out, _ = run(capsys, "sched", "log", "--store", str(store.root))
        assert code == 0
        assert "* v3" in out
        assert "theta=0.95" in out
        assert "3 version(s)" in out

    def test_limit_truncates(self, store, capsys):
        code, out, _ = run(
            capsys, "sched", "log", "--store", str(store.root), "--limit", "1"
        )
        assert code == 0
        assert "v3" in out and "v1" not in out

    def test_empty_store_is_not_an_error(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sched", "log", "--store", str(tmp_path))
        assert code == 0
        assert "empty" in out


class TestShow:
    def test_show_renders_the_schedule(self, store, capsys):
        code, out, _ = run(
            capsys,
            "sched", "show", "--store", str(store.root), "--version", "1",
        )
        assert code == 0
        assert "version 1" in out
        assert "theta=0.95" in out
        assert "C1 |" in out  # the ascii schedule

    def test_show_on_an_empty_store_fails(self, tmp_path, capsys):
        code, _, err = run(capsys, "sched", "show", "--store", str(tmp_path))
        assert code == 1
        assert "empty" in err


class TestDiff:
    def test_diff_between_distinct_versions(self, store, capsys):
        code, out, _ = run(
            capsys,
            "sched", "diff", "--store", str(store.root),
            "--from", "1", "--to", "2",
        )
        assert code == 0
        assert "op(s)" in out
        assert "set " in out

    def test_diff_of_identical_content(self, store, capsys):
        store.rollback(1)  # v4 == v1 byte for byte
        code, out, _ = run(
            capsys,
            "sched", "diff", "--store", str(store.root),
            "--from", "1", "--to", "4",
        )
        assert code == 0
        assert "content-identical" in out

    def test_unknown_version_fails(self, store, capsys):
        code, _, err = run(
            capsys,
            "sched", "diff", "--store", str(store.root),
            "--from", "1", "--to", "9",
        )
        assert code == 1
        assert "error:" in err


class TestRollback:
    def test_rollback_appends_a_byte_identical_version(self, store, capsys):
        code, out, _ = run(
            capsys,
            "sched", "rollback", "--store", str(store.root), "--to", "1",
        )
        assert code == 0
        assert "version 4" in out
        assert store.head.version == 4
        assert store.head.content_id == store.record(1).content_id

    def test_rollback_to_a_missing_version_fails(self, store, capsys):
        code, _, err = run(
            capsys,
            "sched", "rollback", "--store", str(store.root), "--to", "9",
        )
        assert code == 1
        assert "error:" in err


class TestGc:
    def test_gc_reports_removals(self, store, capsys):
        stray = store.root / "objects" / f"{'cd' * 32}.json"
        stray.write_text("{}")
        code, out, _ = run(capsys, "sched", "gc", "--store", str(store.root))
        assert code == 0
        assert "cdcdcdcdcdcd" in out
        assert not stray.exists()

    def test_clean_gc(self, store, capsys):
        code, out, _ = run(capsys, "sched", "gc", "--store", str(store.root))
        assert code == 0
        assert "0 unreferenced object(s)" in out


class TestBenchAndLoadtest:
    def test_bench_writes_a_record_and_passes_checks(
        self, tmp_path, monkeypatch, capsys
    ):
        suite = SUITES["sched-bench"]
        config = {**suite.config, "versions": 4, "items": 10, "channels": 2}
        monkeypatch.setitem(
            SUITES, "sched-bench", dataclasses.replace(suite, config=config)
        )
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "bench", "sched-bench", "--record")
        assert code == 0
        record = json.loads((tmp_path / "BENCH_sched-bench.json").read_text())
        assert record["suite"] == "sched-bench"
        assert all(record["checks"].values())
        # Four publishes plus the rollback.
        assert record["detail"]["versions_published"] == 5

    def test_loadtest_passes_gates(self, capsys):
        code, out, _ = run(
            capsys,
            "sched", "loadtest",
            "--tuners", "12", "--items", "10", "--channels", "2",
        )
        assert code == 0
        assert "0 abandoned" in out
        assert "0 unaccounted frame(s)" in out

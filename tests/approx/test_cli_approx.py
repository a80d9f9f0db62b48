"""Tests for the ``repro.cli approx`` command group."""

from __future__ import annotations

import dataclasses
import json

from repro.bench import SUITES
from repro.cli import main


class TestApproxPlan:
    def test_ptas_plan_card(self, capsys):
        assert main(["approx", "plan", "--items", "400"]) == 0
        out = capsys.readouterr().out
        assert "planner 'ptas'" in out
        assert "a-priori bound" in out
        assert "group:" in out

    def test_meta_plan_card_names_the_decision(self, capsys):
        assert main(
            ["approx", "plan", "--items", "400", "--method", "meta"]
        ) == 0
        out = capsys.readouterr().out
        assert "meta decision:" in out

    def test_unknown_planner_fails_cleanly(self, capsys):
        assert main(
            ["approx", "plan", "--items", "20", "--method", "nope"]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestApproxFrontier:
    def test_writes_the_stamped_record(self, capsys, tmp_path, monkeypatch):
        suite = SUITES["approx-frontier"]
        config = {**suite.config, "sizes": [60, 150]}
        monkeypatch.setitem(
            SUITES, "approx-frontier", dataclasses.replace(suite, config=config)
        )
        monkeypatch.chdir(tmp_path)
        assert main([
            "bench", "approx-frontier", "--record",
            "--rev", "abc1234", "--timestamp", "2026-01-01T00:00:00Z",
        ]) == 0
        out = capsys.readouterr().out
        assert "ptas_ratio_large" in out and "sorting_ratio_large" in out
        assert "meta_decided=ok" in out
        record = json.loads(
            (tmp_path / "BENCH_approx-frontier.json").read_text()
        )
        assert record["suite"] == "approx-frontier"
        assert record["rev"] == "abc1234"
        assert all(record["checks"].values())


class TestApproxExplain:
    def test_prints_features_and_reason(self, capsys):
        assert main(["approx", "explain", "--items", "5000"]) == 0
        out = capsys.readouterr().out
        assert "gini=" in out
        assert "decision: 'ptas'" in out
        assert "reason:" in out

    def test_wire_safe_changes_the_decision(self, capsys):
        assert main(
            ["approx", "explain", "--items", "5000", "--wire-safe"]
        ) == 0
        out = capsys.readouterr().out
        assert "decision: 'sorting'" in out
        assert "wire-routable" in out

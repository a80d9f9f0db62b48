"""Tests for the `solve` CLI subcommand (user JSON in, plan out)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io.json_io import load_schedule, tree_to_dict
from repro.tree.builders import paper_example_tree, random_tree


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree_to_dict(paper_example_tree())))
    return path


class TestSolveCommand:
    def test_solves_and_prints(self, tree_file, capsys):
        assert main(["solve", "--input", str(tree_file), "--channels", "2"]) == 0
        out = capsys.readouterr().out
        assert "method: best-first (exact)" in out
        assert "data wait            = 3.7714" in out

    def test_writes_schedule_json(self, tree_file, tmp_path, capsys):
        output = tmp_path / "plan.json"
        assert (
            main(
                [
                    "solve",
                    "--input", str(tree_file),
                    "--channels", "2",
                    "--output", str(output),
                ]
            )
            == 0
        )
        schedule = load_schedule(output)
        assert schedule.data_wait() == pytest.approx(264 / 70)

    def test_budget_falls_back_to_heuristic(self, tmp_path, rng, capsys):
        big = random_tree(rng, 60)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(tree_to_dict(big)))
        assert (
            main(["solve", "--input", str(path), "--budget", "50"]) == 0
        )
        out = capsys.readouterr().out
        assert "method: sorting" in out
        assert "exact search exceeded 50 states" in out

    def test_missing_input_errors(self, tmp_path, capsys):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read input:")
        assert "nope.json" in err


class TestPlannerSelection:
    def test_named_planner_is_used(self, tree_file, capsys):
        assert main(
            [
                "solve",
                "--input", str(tree_file),
                "--channels", "2",
                "--planner", "sorting",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "method: sorting" in out

    def test_unknown_planner_reports_the_catalog(self, tree_file, capsys):
        from repro.planners import available_planners

        assert main(
            ["solve", "--input", str(tree_file), "--planner", "nope"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no planner registered as 'nope'" in err
        assert f"available: {', '.join(available_planners())}" in err

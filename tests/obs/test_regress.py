"""The regression gate of the bench harness: entries, gating, history, CLI.

The gate lives in :mod:`repro.bench`; these tests drive it through a
tiny registered suite whose run returns canned numbers.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    HIGHER,
    SUITES,
    TIMING,
    Metric,
    Suite,
    find_baseline,
    history_entry,
    judge,
    load_history,
    run_suites,
)
from repro.cli import main

TOY = Suite(
    "toy",
    {"tuners": 50, "seed": 2000},
    run=None,
    metrics=(
        Metric("mean_access_time"),
        Metric("best_first_nodes_expanded"),
        Metric("walks_per_second", HIGHER, TIMING),
    ),
)


def _result(access=14.0, nodes=1000, walks=1200.0, checks_ok=True):
    return {
        "metrics": {
            "mean_access_time": access,
            "best_first_nodes_expanded": nodes,
            "walks_per_second": walks,
        },
        "checks": {"parity_exact": checks_ok},
    }


def _entry(rev="abc1234", suite=TOY, **kwargs):
    result = _result(**kwargs)
    return history_entry(
        suite,
        {
            "rev": rev,
            "timestamp": "2026-08-06T00:00:00Z",
            "metrics": result["metrics"],
            "checks": result["checks"],
            "timings": {},
        },
    )


class TestExtraction:
    def test_entry_carries_metrics_checks_and_fingerprint(self):
        entry = _entry()
        assert entry["schema_version"] == 1
        assert entry["rev"] == "abc1234"
        assert entry["metrics"]["toy.mean_access_time"] == 14.0
        assert entry["metrics"]["toy.best_first_nodes_expanded"] == 1000
        assert entry["fingerprint"] == {"toy": {"tuners": 50, "seed": 2000}}
        assert entry["checks"] == {"toy.parity_exact": True}


class TestGating:
    def test_identical_runs_pass(self):
        entry = _entry()
        verdict = judge(TOY, entry, copy.deepcopy(entry))
        assert verdict.ok
        assert verdict.first_regressed is None

    def test_quality_regression_beyond_tolerance_names_first_metric(self):
        verdict = judge(TOY, _entry(), _entry(access=14.0 * 1.2))
        assert not verdict.ok
        assert verdict.first_regressed == "toy.mean_access_time"

    def test_drift_within_tolerance_passes(self):
        assert judge(TOY, _entry(), _entry(access=14.0 * 1.1)).ok

    def test_improvement_never_regresses(self):
        assert judge(TOY, _entry(), _entry(access=9.0, nodes=500)).ok

    def test_timing_metrics_are_tracked_not_gated(self):
        verdict = judge(TOY, _entry(), _entry(walks=300.0))
        assert verdict.ok
        reading = verdict.readings[-1]
        assert reading.name == "toy.walks_per_second"
        assert reading.delta == pytest.approx(-0.75)

    def test_quality_metric_missing_from_candidate_regresses(self):
        candidate = _entry()
        del candidate["metrics"]["toy.best_first_nodes_expanded"]
        verdict = judge(TOY, _entry(), candidate)
        assert verdict.first_regressed == "toy.best_first_nodes_expanded"

    def test_failed_candidate_checks_gate_before_metrics(self):
        verdict = judge(
            TOY, _entry(), _entry(access=14.0 * 1.5, checks_ok=False)
        )
        assert verdict.first_regressed == "checks.toy.parity_exact"

    def test_fingerprint_mismatch_is_a_hard_error(self):
        # An entry measured at another scale is never a baseline.
        other = _entry()
        other["fingerprint"]["toy"]["tuners"] = 1000
        assert find_baseline(TOY, [other]) is None
        assert find_baseline(TOY, [other, _entry("later")])["rev"] == "later"


class TestHistory:
    def test_append_then_load_roundtrips_in_order(
        self, tmp_path, monkeypatch, capsys
    ):
        _register_toy(monkeypatch)
        for rev in ("aaaa111", "bbbb222"):
            assert run_suites(
                ["toy"], record=True, rev=rev,
                history_dir=str(tmp_path / "nested"), out_dir=str(tmp_path),
            ) == 0
        history = load_history(str(tmp_path / "nested" / "toy.jsonl"))
        assert [entry["rev"] for entry in history] == ["aaaa111", "bbbb222"]
        assert history[-1]["metrics"] == _entry()["metrics"]

    def test_unknown_schema_version_is_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"schema_version": 99}\n')
        with pytest.raises(ValueError, match="schema_version"):
            load_history(str(path))


def _register_toy(monkeypatch, **kwargs):
    suite = Suite(
        TOY.name, TOY.config, lambda config: _result(**kwargs), TOY.metrics
    )
    monkeypatch.setitem(SUITES, "toy", suite)


def _seed_history(tmp_path, entry):
    history = tmp_path / "benchmarks" / "history"
    history.mkdir(parents=True)
    (history / "toy.jsonl").write_text(json.dumps(entry) + "\n")
    return history / "toy.jsonl"


class TestRegressCli:
    @pytest.fixture(autouse=True)
    def in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    def test_bootstrap_seeds_a_missing_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        _register_toy(monkeypatch)
        assert main(["bench", "toy", "--record"]) == 0
        assert "baseline seeded" in capsys.readouterr().out
        path = tmp_path / "benchmarks" / "history" / "toy.jsonl"
        assert len(load_history(str(path))) == 1
        assert (tmp_path / "BENCH_toy.json").exists()

    def test_clean_candidate_exits_zero_and_appends(
        self, tmp_path, monkeypatch, capsys
    ):
        _register_toy(monkeypatch)
        path = _seed_history(tmp_path, _entry())
        assert main(["bench", "toy", "--record"]) == 0
        assert "nothing regressed in toy" in capsys.readouterr().out
        assert len(load_history(str(path))) == 2

    def test_degraded_candidate_exits_one_naming_the_metric(
        self, tmp_path, monkeypatch, capsys
    ):
        _register_toy(monkeypatch, access=14.0 * 1.5)
        path = _seed_history(tmp_path, _entry())
        assert main(["bench", "toy"]) == 1
        out = capsys.readouterr().out
        assert "first regressed metric: toy.mean_access_time" in out
        assert "REGRESSED" in out
        assert len(load_history(str(path))) == 1  # no --record, no append

    def test_missing_baseline_without_bootstrap_is_usage_error(
        self, monkeypatch, capsys
    ):
        _register_toy(monkeypatch)
        assert main(["bench", "toy"]) == 2
        assert "--record" in capsys.readouterr().err

    def test_scale_mismatch_is_reported_not_raised(
        self, tmp_path, monkeypatch, capsys
    ):
        _register_toy(monkeypatch)
        mismatched = _entry()
        mismatched["fingerprint"]["toy"]["tuners"] = 1000
        _seed_history(tmp_path, mismatched)
        assert main(["bench", "toy"]) == 2
        assert "no baseline at this config" in capsys.readouterr().err

    def test_unreadable_history_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        _register_toy(monkeypatch)
        _seed_history(tmp_path, {"schema_version": 99})
        assert main(["bench", "toy"]) == 2
        assert "cannot read history" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["bench", "no-such-suite"]) == 2
        assert "unknown bench suite" in capsys.readouterr().err

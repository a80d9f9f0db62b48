"""The ``approx-frontier`` bench suite (:mod:`repro.approx.bench`)."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.perf
from repro.approx import run_frontier_bench
from repro.bench import SUITES, write_record
from repro.perf import PerfRecorder

CONFIG = {
    "sizes": [60, 240], "channels": 3, "fanout": 3, "theta": 0.95,
    "seed": 99,
}


@pytest.fixture(scope="module")
def record():
    # One shared smoke-scale run; the assertions below only read it.
    return SUITES["approx-frontier"].run(CONFIG)


class TestFrontierRecord:
    def test_envelope_fields(self, record, tmp_path):
        suite = dataclasses.replace(SUITES["approx-frontier"], config=CONFIG)
        document = write_record(suite, record, out_dir=str(tmp_path))
        assert document["suite"] == "approx-frontier"
        assert document["config"]["sizes"] == [60, 240]
        assert document["config"]["channels"] == 3

    def test_every_size_has_the_three_points(self, record):
        result = record["detail"]["result"]
        assert set(result) == {"60", "240"}
        for entry in result.values():
            assert set(entry["frontier"]) == {"ptas", "sorting", "meta"}
            for point in entry["frontier"].values():
                assert point["data_wait"] > 0
                assert point["ratio_to_lower"] >= 1.0 - 1e-9
                assert point["ratio_to_best"] >= 1.0 - 1e-9
                assert point["plan_seconds"] >= 0.0

    def test_ptas_point_carries_its_bound(self, record):
        for entry in record["detail"]["result"].values():
            point = entry["frontier"]["ptas"]
            assert point["data_wait"] <= point["quality_bound"] * (1 + 1e-9)
            assert point["bound_slack"] >= 1.0 - 1e-9

    def test_meta_point_carries_the_decision(self, record):
        for entry in record["detail"]["result"].values():
            point = entry["frontier"]["meta"]
            assert point["chose"]
            assert isinstance(point["fell_back"], bool)
            assert 0.0 <= point["gini"] <= 1.0

    def test_checks_all_pass(self, record):
        assert all(record["checks"].values())

    def test_aggregate_flattens_small_and_large(self, record):
        metrics = record["metrics"]
        result = record["detail"]["result"]
        assert metrics["ptas_ratio_large"] == pytest.approx(
            result["240"]["frontier"]["ptas"]["ratio_to_lower"]
        )
        assert metrics["meta_ratio_small"] == pytest.approx(
            result["60"]["frontier"]["meta"]["ratio_to_lower"]
        )
        assert metrics["sorting_plan_seconds_large"] == (
            record["timings"]["sorting_plan_seconds_large"]["min"]
        )

    def test_quality_metrics_are_seed_deterministic(self, record):
        again = SUITES["approx-frontier"].run(CONFIG)
        assert again["metrics"]["ptas_ratio_large"] == pytest.approx(
            record["metrics"]["ptas_ratio_large"], abs=0
        )
        assert again["metrics"]["sorting_ratio_large"] == pytest.approx(
            record["metrics"]["sorting_ratio_large"], abs=0
        )

    def test_perf_trail_is_attached(self, record):
        perf = record["detail"]["perf"]
        assert perf["counters"]["planner.ptas.plans"] >= 2

    def test_caller_perf_recorder_is_used(self, monkeypatch):
        # At the real repeat count: however many timed calls each
        # planner takes, the trail counts one plan per planner.
        monkeypatch.setattr(repro.perf, "REPEATS", 5)
        perf = PerfRecorder()
        run_frontier_bench((60,), channels=2, perf=perf)
        counters = perf.snapshot()["counters"]
        assert counters["planner.meta.decisions"] == 1
        assert counters["planner.ptas.plans"] == 1

    def test_bad_sizes_raise(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_frontier_bench(())
        with pytest.raises(ValueError, match=">= 2"):
            run_frontier_bench((1,))


class TestWriteJson:
    def test_stamps_and_writes_the_envelope(self, record, tmp_path):
        stamped = write_record(
            SUITES["approx-frontier"], record, rev="abc1234",
            timestamp="2026-01-01T00:00:00Z", out_dir=str(tmp_path),
        )
        on_disk = json.loads((tmp_path / "BENCH_approx-frontier.json").read_text())
        assert on_disk == stamped
        assert on_disk["schema_version"] == 1
        assert on_disk["rev"] == "abc1234"
        assert on_disk["suite"] == "approx-frontier"

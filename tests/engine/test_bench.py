"""The engine bench suite: result shape, gates, and the written record."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.bench import SUITES, run_suites, write_record
from repro.engine.bench import ENVELOPE_WALKS_PER_SECOND, run_engine_bench

CONFIG = {
    **SUITES["engine-batch"].config,
    "items": 12, "walks": 4000, "sample": 300, "repeats": 1, "seed": 7,
}
SUITE = dataclasses.replace(SUITES["engine-batch"], config=CONFIG)


@pytest.fixture(scope="module")
def record():
    return SUITE.run(CONFIG)


class TestRecordShape:
    def test_suite_and_config(self, record, tmp_path):
        document = write_record(SUITE, record, out_dir=str(tmp_path))
        assert document["suite"] == "engine-batch"
        config = document["config"]
        assert config["walks"] == 4000
        assert config["sample"] == 300
        assert config["seed"] == 7

    def test_sections_present(self, record):
        for section in ("scalar", "batch", "faulty"):
            timing = record["timings"][f"{section}_seconds"]
            assert 0 < timing["min"] <= timing["median"]
        assert record["metrics"]["batch_walks_per_second"] > 0
        assert record["detail"]["scalar_walks"] == 300

    def test_quality_aggregates_are_seed_deterministic(self, record):
        again = SUITE.run(CONFIG)
        for metric in (
            "mean_access_time",
            "mean_tuning_time",
            "faulty_mean_access_time",
        ):
            assert record["metrics"][metric] == again["metrics"][metric]
        assert (
            record["detail"]["faulty_abandoned"]
            == again["detail"]["faulty_abandoned"]
        )


class TestGates:
    def test_differential_gates_pass(self, record):
        checks = record["checks"]
        assert checks["differential_exact"] is True
        assert checks["differential_faulty_exact"] is True

    def test_speedup_is_measured_against_the_envelope(self, record):
        assert record["detail"]["speedup_vs_envelope"] == pytest.approx(
            record["metrics"]["batch_walks_per_second"]
            / ENVELOPE_WALKS_PER_SECOND
        )

    def test_sample_is_clamped_to_walks(self):
        small = run_engine_bench(
            items=12, walks=50, sample=500, repeats=1, seed=7
        )
        assert small["detail"]["scalar_walks"] == 50

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            run_engine_bench(walks=0)
        with pytest.raises(ValueError):
            run_engine_bench(repeats=0)


class TestOutputs:
    def test_format_mentions_gates_and_throughput(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setitem(SUITES, "engine-batch", SUITE)
        run_suites(
            ["engine-batch"], record=True,
            history_dir=str(tmp_path), out_dir=str(tmp_path),
        )
        text = capsys.readouterr().out
        assert "batch_walks_per_second" in text
        assert "differential_exact=ok" in text

    def test_written_record_wears_the_envelope(self, record, tmp_path):
        stamped = write_record(
            SUITE, record, rev="abc1234", timestamp="2026-01-01T00:00:00Z",
            out_dir=str(tmp_path),
        )
        on_disk = json.loads((tmp_path / "BENCH_engine-batch.json").read_text())
        assert on_disk == stamped
        assert on_disk["suite"] == "engine-batch"
        assert on_disk["rev"] == "abc1234"
        assert on_disk["schema_version"] >= 1

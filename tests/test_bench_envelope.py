"""The envelope every ``BENCH_<suite>.json`` wears, and the suite registry."""

from __future__ import annotations

import json

import pytest

from repro.bench import SUITES, Metric, Suite, register, run_suites, write_record

ENVELOPE_FIELDS = ("schema_version", "suite", "rev", "timestamp")

SUITE = Suite(
    "toy", {"seed": 1}, run=None, metrics=(Metric("mean_access_time"),)
)
RESULT = {
    "metrics": {"mean_access_time": 14.0},
    "checks": {"passes": True},
    "detail": {"payload": [1, 2]},
}


class TestStamp:
    def test_envelope_fields_lead_the_document(self, tmp_path):
        record = write_record(
            SUITE, RESULT, rev="abc1234", timestamp="2026-08-05T00:00:00Z",
            out_dir=str(tmp_path),
        )
        assert list(record)[: len(ENVELOPE_FIELDS)] == list(ENVELOPE_FIELDS)
        assert record["schema_version"] == 1
        assert record["suite"] == "toy"
        assert record["rev"] == "abc1234"
        assert record["config"] == {"seed": 1}
        assert record["detail"] == {"payload": [1, 2]}

    def test_unstamped_run_carries_none(self, tmp_path):
        record = write_record(SUITE, RESULT, out_dir=str(tmp_path))
        assert record["rev"] is None and record["timestamp"] is None

    def test_requires_a_suite_name(self):
        with pytest.raises(KeyError, match="no-such-suite"):
            run_suites(["no-such-suite"])

    def test_undeclared_metrics_are_rejected(self, tmp_path):
        stray = {**RESULT, "metrics": {"mean_access_time": 1.0, "extra": 2.0}}
        with pytest.raises(ValueError, match="undeclared metric"):
            write_record(SUITE, stray, out_dir=str(tmp_path))


class TestFiles:
    def test_load_then_write_round_trip(self, tmp_path):
        record = write_record(SUITE, RESULT, rev="r", out_dir=str(tmp_path))
        on_disk = json.loads((tmp_path / "BENCH_toy.json").read_text())
        assert on_disk == record

    def test_duplicate_suites_are_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(SUITES["net-loadtest"])

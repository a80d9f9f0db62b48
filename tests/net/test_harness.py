"""Tests for the loadtest harness, including the loopback parity gate."""

from __future__ import annotations

import asyncio
import dataclasses
import json

import numpy as np
import pytest

from repro.bench import SUITES, write_record
from repro.client.protocol import RecoveryPolicy, object_walk, recovering_walk
from repro.faults import FaultConfig, FaultInjector
from repro.net import (
    build_demo_program,
    make_request_trace,
    run_loadtest,
    simulator_baseline,
)
from repro.net.harness import build_demo_plan, demo_labels


@pytest.fixture(scope="module")
def program():
    return build_demo_program(items=12, channels=2, fanout=3, seed=17)


class TestTrace:
    def test_trace_is_reproducible(self, program):
        first = make_request_trace(program, 50, np.random.default_rng(4))
        again = make_request_trace(program, 50, np.random.default_rng(4))
        assert first == again
        labels = {leaf.label for leaf in program.schedule.tree.data_nodes()}
        for key, slot in first:
            assert key in labels
            assert 1 <= slot <= program.cycle_length


class TestDemoCatalogScale:
    def test_labels_stay_sorted_past_a_thousand_items(self):
        # Up to 1,000 items the keys keep their three-digit spelling.
        assert demo_labels(1000)[::999] == ["K000", "K999"]
        labels = demo_labels(1001)
        assert labels == sorted(labels)
        assert labels[::1000] == ["K0000", "K1000"]

    def test_plans_1001_items(self):
        plan = build_demo_plan(items=1001, planner="meta")
        leaves = plan.schedule.tree.data_nodes()
        assert [leaf.label for leaf in leaves] == demo_labels(1001)

    def test_plans_400_items_with_sorting(self):
        # Past the exact DP's size threshold the catalog is indexed by
        # a weight-balanced tree instead of recursing through the DP.
        plan = build_demo_plan(items=400, planner="sorting")
        program = plan.compile()
        leaves = program.schedule.tree.data_nodes()
        assert [leaf.label for leaf in leaves] == demo_labels(400)
        for leaf in leaves[::37]:
            record = object_walk(program, leaf, 1)
            assert record.data_wait == program.schedule.slot_of(leaf)


class TestParityGate:
    def test_lossless_fleet_reproduces_the_simulator(self, program):
        report = asyncio.run(
            run_loadtest(
                program,
                tuners=120,
                rng=np.random.default_rng(6),
                arrival_rate=0.0,
                check_parity=True,
            )
        )
        assert report.completed == 120
        assert report.abandoned == 0
        assert report.parity is not None
        assert report.parity["exact_match"]
        assert report.parity_ok and report.accounting_ok
        assert report.unaccounted_frames == 0
        assert report.frames_answered == report.frames_read

    def test_parity_refuses_lossy_air(self, program):
        with pytest.raises(ValueError, match="lossless"):
            asyncio.run(
                run_loadtest(
                    program,
                    tuners=5,
                    faults=FaultConfig(loss=0.1, seed=1),
                    check_parity=True,
                )
            )

    def test_poisson_arrivals_do_not_change_the_numbers(self, program):
        trace = make_request_trace(program, 60, np.random.default_rng(9))
        burst = asyncio.run(
            run_loadtest(program, trace=trace, arrival_rate=0.0)
        )
        staggered = asyncio.run(
            run_loadtest(program, trace=trace, arrival_rate=2000.0)
        )
        # Wall clock differs; slot-denominated measurements must not.
        assert burst.mean_access_time == staggered.mean_access_time
        assert burst.mean_tuning_time == staggered.mean_tuning_time


class TestLossyFleet:
    def test_lossy_fleet_matches_in_process_recovery(self, program):
        faults = FaultConfig(loss=0.15, corruption=0.05, seed=11)
        policy = RecoveryPolicy(mode="retry-parent", max_cycles=8)
        trace = make_request_trace(program, 80, np.random.default_rng(3))
        report = asyncio.run(
            run_loadtest(
                program,
                trace=trace,
                faults=faults,
                policy=policy,
                arrival_rate=0.0,
            )
        )
        leaf_of = {
            leaf.label: leaf for leaf in program.schedule.tree.data_nodes()
        }
        injector = FaultInjector(faults)
        baseline = [
            recovering_walk(
                program, leaf_of[key], slot, faults=injector, policy=policy
            )
            for key, slot in trace
        ]
        done = [r for r in baseline if not r.abandoned]
        assert report.completed == len(done)
        assert report.lost_buckets == sum(r.lost_buckets for r in baseline)
        assert report.corrupt_buckets == sum(
            r.corrupt_buckets for r in baseline
        )
        assert report.retries == sum(r.retries for r in baseline)
        if done:
            assert report.mean_access_time == pytest.approx(
                sum(r.access_time for r in done) / len(done)
            )
        assert report.accounting_ok

    def test_simulator_baseline_shape(self, program):
        trace = make_request_trace(program, 10, np.random.default_rng(2))
        baseline = simulator_baseline(program, trace)
        assert baseline["requests"] == 10
        assert len(baseline["access_times"]) == 10
        assert baseline["mean_access_time"] == pytest.approx(
            sum(baseline["access_times"]) / 10
        )


class TestReportRecord:
    def test_write_loadtest_json(self, tmp_path):
        suite = SUITES["net-loadtest"]
        config = {**suite.config, "items": 10, "tuners": 20, "seed": 1}
        suite = dataclasses.replace(suite, config=config)
        result = suite.run(config)
        record = write_record(suite, result, out_dir=str(tmp_path))
        on_disk = json.loads((tmp_path / "BENCH_net-loadtest.json").read_text())
        assert on_disk == record
        assert on_disk["suite"] == "net-loadtest"
        assert on_disk["config"]["tuners"] == 20
        assert on_disk["checks"] == {
            "zero_unaccounted_frames": True,
            "parity_exact": True,
        }
        assert on_disk["detail"]["tuners"] == 20
        assert on_disk["metrics"]["walks_per_second"] > 0

class TestPercentileConvention:
    """_percentiles is nearest-rank, bit-identical to QuantileDigest."""

    def test_empty_values_yield_zeros_not_nan(self):
        from repro.net.harness import _percentiles

        result = _percentiles([])
        assert result == {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
        assert all(value == value for value in result.values())  # no NaN

    def test_nearest_rank_is_an_observed_value(self):
        from repro.net.harness import _percentiles

        # Linear interpolation would report 5.5 for p50 here; nearest
        # rank must pick the 5th order statistic (rank = ceil(0.5·10)).
        values = list(range(1, 11))
        result = _percentiles(values)
        assert result["p50"] == 5.0
        assert result["p90"] == 9.0
        assert result["p99"] == 10.0
        assert result["max"] == 10.0
        for reported in result.values():
            assert reported in [float(v) for v in values]

    def test_agrees_with_quantile_digest(self):
        from repro.net.harness import _percentiles
        from repro.obs.digest import QuantileDigest

        rng = np.random.default_rng(99)
        for size in (1, 2, 7, 100, 501):
            values = [int(v) for v in rng.integers(0, 120, size)]
            digest = QuantileDigest()
            for value in values:
                digest.observe(value)
            # Bit-identity is the exact regime: the digest only promises
            # the true order statistic while its bins are uncoarsened.
            assert digest.width == 1
            result = _percentiles(values)
            assert result["p50"] == float(digest.quantile(0.50))
            assert result["p90"] == float(digest.quantile(0.90))
            assert result["p99"] == float(digest.quantile(0.99))

"""Cluster fleet harness: routing, per-shard accounting, parity, sweep."""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.bench import SUITES, history_entry

from repro.cluster import (
    StationCluster,
    make_cluster_trace,
    run_cluster_loadtest,
    run_cluster_sweep,
    serve_cluster,
    sweep_summary,
)
from repro.net.tuner import TunerClient
from repro.obs.metrics import MetricsRegistry
from repro.workloads.weights import zipf_weights


def demo_catalog(items=24, seed=2000):
    rng = np.random.default_rng(seed)
    labels = [f"K{index:03d}" for index in range(items)]
    return list(zip(labels, (float(w) for w in zipf_weights(rng, items))))


@pytest.fixture()
def cluster():
    return StationCluster(demo_catalog(), 2)


class TestClusterTrace:
    def test_trace_routes_through_directory(self, cluster):
        rng = np.random.default_rng(7)
        trace = make_cluster_trace(cluster, 80, rng)
        assert len(trace) == 80
        for shard, key, slot in trace:
            assert cluster.router.shard_of(key) == shard
            assert 1 <= slot <= cluster.plans[shard].program.cycle_length

    def test_trace_deterministic(self, cluster):
        first = make_cluster_trace(cluster, 50, np.random.default_rng(3))
        second = make_cluster_trace(cluster, 50, np.random.default_rng(3))
        assert first == second


class TestClusterLoadtest:
    def test_accounting_and_parity_per_shard(self, cluster):
        report = asyncio.run(
            run_cluster_loadtest(
                cluster,
                tuners=60,
                rng=np.random.default_rng(5),
                check_parity=True,
            )
        )
        assert report.shards == 2
        assert report.completed == 60
        assert report.abandoned == 0
        assert report.accounting_ok
        assert report.parity_ok
        for shard_report in report.per_shard.values():
            assert shard_report["unaccounted_frames"] == 0
            assert shard_report["checks"]["zero_unaccounted_frames"]
            assert shard_report["checks"]["parity_exact"]

    def test_checks_in_dict(self, cluster):
        report = asyncio.run(
            run_cluster_loadtest(
                cluster, tuners=30, rng=np.random.default_rng(5)
            )
        )
        record = report.to_dict()
        assert record["checks"]["zero_unaccounted_frames"] is True
        assert set(record["per_shard"]) == {"0", "1"}

    def test_per_shard_metric_labels(self, cluster):
        registry = MetricsRegistry()
        asyncio.run(
            run_cluster_loadtest(
                cluster,
                tuners=40,
                rng=np.random.default_rng(5),
                metrics=registry,
            )
        )
        text = registry.render()
        for shard in ("0", "1"):
            assert f'repro_walk_completed_total{{shard="{shard}"}}' in text
            assert (
                f'repro_net_station_frames_sent_total{{shard="{shard}"}}'
                in text
            )


class TestServeCluster:
    def test_endpoints_live_while_serving(self, cluster):
        async def scenario():
            async with serve_cluster(cluster):
                assert sorted(cluster.endpoints) == [0, 1]
                key = cluster.router.keys_of(1)[0]
                host, port = cluster.endpoint_of(key)
                assert (host, port) == cluster.endpoints[1]
                async with TunerClient(host, port) as tuner:
                    result = await tuner.fetch(key, 1)
                assert result.key == key
                assert not result.abandoned

        asyncio.run(scenario())
        assert cluster.endpoints == {}


def _sweep_config(counts, tuners):
    return {
        **SUITES["cluster-loadtest"].config,
        "items": 24, "shard_counts": counts, "tuners": tuners,
        "slot_duration": 0.0,
    }


class TestSweepRecord:
    def test_sweep_records_speedups_and_checks(self):
        record = SUITES["cluster-loadtest"].run(_sweep_config([1, 2], 40))
        metrics = record["metrics"]
        assert set(record["detail"]) == {"1", "2"}
        assert "mean_access_time_1shard" in metrics
        assert "mean_access_time_2shards" in metrics
        assert metrics["walks_per_second_1shard"] > 0
        assert metrics["speedup_2shards"] == pytest.approx(
            record["detail"]["2"]["aggregate_walks_per_second"]
            / metrics["walks_per_second_1shard"]
        )
        assert record["checks"]["zero_unaccounted_frames"] is True
        assert record["checks"]["parity_exact"] is True
        assert "scaling_2shard" in record["checks"]

    def test_sweep_without_baseline_has_no_speedups(self):
        results = run_cluster_sweep(demo_catalog(), [2], tuners=30)
        speedups, checks = sweep_summary(results)
        assert speedups == {}
        assert "scaling_2shard" not in checks

    def test_regress_extracts_cluster_metrics(self):
        config = _sweep_config([1, 2], 30)
        record = SUITES["cluster-loadtest"].run(config)
        suite = dataclasses.replace(SUITES["cluster-loadtest"], config=config)
        entry = history_entry(
            suite,
            {"rev": None, "timestamp": None, "timings": {}, **record},
        )
        metrics = entry["metrics"]
        assert "cluster-loadtest.mean_access_time_1shard" in metrics
        assert "cluster-loadtest.mean_access_time_2shards" in metrics
        assert "cluster-loadtest.speedup_2shards" in metrics
        assert entry["fingerprint"]["cluster-loadtest"]["tuners"] == 30

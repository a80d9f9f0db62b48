"""Graceful degradation of the serving loop under unreliable channels.

The server-level differential invariant is the headline: a server given
a zero-probability fault model must measure, cycle for cycle, exactly
what the plain lossless server measures — the robustness layer may not
perturb a single number until the channel actually misbehaves.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.bench import SUITES
from repro.client.protocol import RecoveryPolicy
from repro.faults import BurstConfig, FaultConfig
from repro.server.loop import BroadcastServer, CycleStats, ServerReport

ITEMS = [f"K{index:02d}" for index in range(10)]


def _run(server, seed=7, cycles=10):
    return server.run(
        np.random.default_rng(seed),
        cycles=cycles,
        mean_requests_per_cycle=20.0,
    )


def _signature(report):
    return [
        (
            stats.cycle,
            stats.requests,
            stats.mean_access_time,
            stats.mean_tuning_time,
            stats.analytic_access_time,
            stats.replanned,
        )
        for stats in report.cycles
    ]


class TestServerDifferential:
    def test_p0_fault_model_is_bit_identical_to_lossless(self):
        plain = BroadcastServer(ITEMS, channels=2, replan_every=4)
        faulty = BroadcastServer(
            ITEMS,
            channels=2,
            replan_every=4,
            faults=FaultConfig(loss=0.0, seed=3),
        )
        assert _signature(_run(plain)) == _signature(_run(faulty))

    def test_p0_cycles_report_zero_fault_accounting(self):
        server = BroadcastServer(
            ITEMS, channels=2, faults=FaultConfig(loss=0.0, seed=3)
        )
        report = _run(server)
        assert report.lost_buckets == 0
        assert report.corrupt_buckets == 0
        assert report.retries == 0
        assert report.abandoned == 0


class TestLossyServing:
    def test_losses_degrade_access_time_and_are_counted(self):
        plain = BroadcastServer(ITEMS, channels=2)
        lossy = BroadcastServer(
            ITEMS,
            channels=2,
            faults=FaultConfig(loss=0.2, corruption=0.03, seed=5),
            recovery=RecoveryPolicy(mode="retry-parent", max_cycles=8),
        )
        baseline = _run(plain, cycles=15)
        degraded = _run(lossy, cycles=15)
        assert degraded.mean_access_time > baseline.mean_access_time
        assert degraded.lost_buckets > 0
        assert degraded.retries > 0

    def test_fault_counters_reach_the_perf_recorder(self):
        server = BroadcastServer(
            ITEMS, channels=2, faults=FaultConfig(loss=0.2, seed=5)
        )
        report = _run(server)
        counters = report.perf["counters"]
        assert counters["server.faults.lost"] == report.lost_buckets
        assert counters["server.faults.retries"] == report.retries
        assert counters["server.faults.abandoned"] == report.abandoned
        assert "server.faults.wasted_probes" in counters

    def test_lossless_server_emits_no_fault_counters(self):
        report = _run(BroadcastServer(ITEMS, channels=2))
        assert not any(
            key.startswith("server.faults") for key in report.perf["counters"]
        )

    def test_burst_faults_run_end_to_end(self):
        server = BroadcastServer(
            ITEMS,
            channels=2,
            faults=FaultConfig(
                loss=0.05, burst=BurstConfig(), corruption=0.02, seed=9
            ),
            recovery=RecoveryPolicy(max_cycles=6),
        )
        report = _run(server)
        assert report.requests_served > 0
        assert report.lost_buckets > 0


class TestAbandonedAccounting:
    """Regression: abandoned requests never count toward mean access."""

    def test_total_loss_abandons_everything_and_means_stay_zero(self):
        server = BroadcastServer(
            ITEMS,
            channels=2,
            faults=FaultConfig(loss=1.0, seed=1),
            recovery=RecoveryPolicy(max_cycles=2),
        )
        report = _run(server, cycles=5)
        assert report.requests_served > 0
        assert report.abandoned == report.requests_served
        assert report.mean_access_time == 0.0

    def test_report_mean_weights_by_completed_not_arrivals(self):
        report = ServerReport(
            cycles=[
                CycleStats(
                    cycle=0,
                    requests=4,
                    mean_access_time=10.0,
                    mean_tuning_time=3.0,
                    analytic_access_time=10.0,
                    replanned=False,
                    abandoned=2,  # only 2 completed at mean 10
                ),
                CycleStats(
                    cycle=1,
                    requests=2,
                    mean_access_time=20.0,
                    mean_tuning_time=3.0,
                    analytic_access_time=10.0,
                    replanned=False,
                ),
            ]
        )
        # (10·2 + 20·2) / 4, not (10·4 + 20·2) / 6.
        assert report.mean_access_time == pytest.approx(15.0)
        assert report.window_mean_access(0, 2) == pytest.approx(15.0)


class TestPlannerSelection:
    def test_server_selects_planner_by_registry_name(self):
        server = BroadcastServer(ITEMS, channels=2, planner="sorting")
        assert server.planner.planner_name == "sorting"
        report = _run(server, cycles=3)
        assert report.requests_served > 0

    def test_unknown_planner_name_fails_at_construction(self):
        from repro.planners import PlannerNotFound

        with pytest.raises(PlannerNotFound):
            BroadcastServer(ITEMS, planner="not-a-planner")

    def test_loop_module_has_no_hard_coded_solver_imports(self):
        import repro.server.loop as loop

        source = inspect.getsource(loop)
        assert "core.optimal" not in source
        assert "heuristics" not in source
        assert "from ..core" not in source


class TestServerBench:
    def test_bench_checks_all_pass(self):
        suite = SUITES["server-faults"]
        record = suite.run(dict(suite.config))
        assert all(record["checks"].values())
        scenarios = {s["scenario"] for s in record["detail"]["scenarios"]}
        assert scenarios == {
            "lossless", "lossless-faultpath", "lossy-burst",
        }

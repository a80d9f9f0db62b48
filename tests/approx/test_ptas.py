"""Tests for the one-tree ptas planner (:mod:`repro.approx.ptas`)."""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from repro.approx import ptas_catalog_plan
from repro.approx.ptas import _data_wait_lower_bound
from repro.perf import PerfRecorder
from repro.planners import available_planners, plan, plan_catalog
from repro.tree.builders import paper_example_tree
from repro.workloads.weights import zipf_weights


def zipf_catalog(size: int, seed: int = 7) -> tuple[list[str], list[float]]:
    rng = np.random.default_rng(seed)
    labels = [f"d{i:05d}" for i in range(size)]
    return labels, [float(w) for w in zipf_weights(rng, size)]


def assert_feasible(result, channels: int) -> None:
    """Independent feasibility re-check, not trusting the validator."""
    schedule = result.schedule
    seen_cells: set[tuple[int, int]] = set()
    for node in schedule.nodes():
        channel, slot = schedule.position(node)
        assert 1 <= channel <= channels
        assert slot >= 1
        assert (channel, slot) not in seen_cells
        seen_cells.add((channel, slot))
        if node.parent is not None:
            assert slot > schedule.slot_of(node.parent)
    assert len(seen_cells) == len(schedule.tree.nodes())


class TestPtasPlans:
    @pytest.mark.parametrize(
        ("size", "channels"),
        [(2, 1), (5, 2), (17, 3), (120, 4), (500, 4), (1000, 6)],
    )
    def test_feasible_and_within_bound(self, size, channels):
        labels, weights = zipf_catalog(size)
        result = ptas_catalog_plan(labels, weights, channels)
        assert_feasible(result, channels)
        assert result.cost == pytest.approx(result.schedule.data_wait())
        assert result.cost <= result.stats["quality_bound"] * (1 + 1e-9)
        assert result.cost >= result.stats["lower_bound"] * (1 - 1e-9)

    def test_deterministic(self):
        labels, weights = zipf_catalog(300)
        first = ptas_catalog_plan(labels, weights, 3)
        second = ptas_catalog_plan(labels, weights, 3)
        assert first.cost == second.cost
        assert first.stats == second.stats

    def test_stats_describe_the_one_tree(self):
        labels, weights = zipf_catalog(400)
        result = ptas_catalog_plan(labels, weights, 4)
        stats = result.stats
        assert stats["quality_ratio"] == pytest.approx(
            stats["quality_bound"] / stats["lower_bound"]
        )
        tree = result.schedule.tree
        # The tree under the single-child global root: every node but it.
        assert stats["nodes"] == len(tree.nodes()) - 1
        assert len(tree.root.children) == 1
        assert stats["depth"] == tree.depth() - 1
        assert stats["quality_bound"] == (
            2 + math.ceil(stats["nodes"] / 4) + stats["depth"]
        )
        # Packed from slot 2, the tree ends the cycle.
        assert result.schedule.cycle_length == 1 + stats["slots"]
        assert stats["slots"] <= math.ceil(stats["nodes"] / 4) + stats["depth"]
        assert set(stats) == {
            "nodes", "depth", "slots",
            "quality_bound", "lower_bound", "quality_ratio",
        }

    def test_perf_counters(self):
        labels, weights = zipf_catalog(100)
        perf = PerfRecorder()
        ptas_catalog_plan(labels, weights, 2, perf=perf)
        counters = perf.snapshot()["counters"]
        assert counters["planner.ptas.plans"] == 1
        assert counters["planner.ptas.items"] == 100
        assert set(counters) == {"planner.ptas.plans", "planner.ptas.items"}

    def test_gc_state_is_restored(self):
        labels, weights = zipf_catalog(50)
        assert gc.isenabled()
        ptas_catalog_plan(labels, weights, 2)
        assert gc.isenabled()
        gc.disable()
        try:
            ptas_catalog_plan(labels, weights, 2)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_bad_catalogs_raise(self):
        with pytest.raises(ValueError, match="labels"):
            ptas_catalog_plan(["a", "b"], [1.0], 1)
        with pytest.raises(ValueError, match="empty"):
            ptas_catalog_plan([], [], 1)
        with pytest.raises(ValueError, match="channels"):
            ptas_catalog_plan(["a"], [1.0], 0)


class TestRegistryEntry:
    def test_registered(self):
        assert "ptas" in available_planners()

    def test_plans_a_tree_by_reindexing_its_leaves(self):
        tree = paper_example_tree()
        result = plan(tree, 2, method="ptas")
        assert result.method == "ptas"
        assert_feasible(result, 2)
        assert result.cost <= result.stats["quality_bound"] * (1 + 1e-9)

    def test_plan_catalog_takes_the_streaming_path(self):
        labels, weights = zipf_catalog(200)
        perf = PerfRecorder()
        result = plan_catalog(
            labels, weights, 3, method="ptas", perf=perf
        )
        assert result.method == "ptas"
        # The streaming path never builds the cubic optimal tree, so
        # the ptas timer is the only planning timer that ran.
        assert "planner.ptas.seconds" in perf.snapshot()["timers"]


class TestLowerBound:
    def test_matches_hand_computation(self):
        # Weights 4,3,2,1 on 2 channels: slots 1,1,2,2 for the sorted
        # weights -> (4+3+2*2+1*2)/10.
        assert _data_wait_lower_bound([1.0, 4.0, 2.0, 3.0], 2) == pytest.approx(
            (4 + 3 + 4 + 2) / 10
        )

    def test_zero_total_is_zero(self):
        assert _data_wait_lower_bound([0.0, 0.0], 2) == 0.0

    def test_no_planner_beats_it(self):
        labels, weights = zipf_catalog(30)
        lower = _data_wait_lower_bound(weights, 2)
        for method in ("sorting", "ptas", "shrink-combine"):
            result = plan_catalog(labels, weights, 2, method=method)
            assert result.cost >= lower * (1 - 1e-9)

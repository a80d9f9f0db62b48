"""Tests for the cost-model meta-planner (:mod:`repro.approx.meta`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx import (
    DEFAULT_THRESHOLDS,
    decide,
    extract_features,
    features_from_estimator,
    gini_coefficient,
    meta_catalog_plan,
    normalized_entropy,
)
from repro.obs import RingBufferTracer
from repro.online.estimator import DecayingFrequencyEstimator
from repro.perf import PerfRecorder
from repro.planners import available_planners, plan, plan_catalog
from repro.sched import plan_to_doc
from repro.tree.builders import paper_example_tree
from repro.workloads.weights import zipf_weights


def zipf_catalog(size: int, seed: int = 11) -> tuple[list[str], list[float]]:
    rng = np.random.default_rng(seed)
    labels = [f"d{i:05d}" for i in range(size)]
    return labels, [float(w) for w in zipf_weights(rng, size)]


def features(items: int, gini: float = 0.3, channels: int = 3):
    from repro.approx import CatalogFeatures

    return CatalogFeatures(
        items=items,
        channels=channels,
        fanout=3,
        total_weight=float(items),
        gini=gini,
        entropy=1.0 - gini,
    )


class TestSkewMeasures:
    def test_gini_uniform_is_zero(self):
        assert gini_coefficient([5.0] * 20) == pytest.approx(0.0, abs=1e-12)

    def test_gini_concentrated_approaches_one(self):
        assert gini_coefficient([1000.0] + [1e-9] * 99) > 0.95

    def test_gini_known_value(self):
        # Two items, all mass on one: Gini = 1/2 at n=2.
        assert gini_coefficient([1.0, 0.0]) == pytest.approx(0.5)

    def test_entropy_uniform_is_one(self):
        assert normalized_entropy([3.0] * 16) == pytest.approx(1.0)

    def test_entropy_concentrated_approaches_zero(self):
        assert normalized_entropy([1000.0] + [1e-12] * 99) < 0.05

    def test_degenerate_conventions(self):
        assert gini_coefficient([7.0]) == 0.0
        assert normalized_entropy([7.0]) == 1.0
        assert normalized_entropy([0.0, 0.0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            gini_coefficient([])
        with pytest.raises(ValueError):
            normalized_entropy([])


class TestExtractFeatures:
    def test_measures_the_vector(self):
        got = extract_features([1.0, 2.0, 3.0], 2, fanout=4)
        assert got.items == 3
        assert got.channels == 2
        assert got.fanout == 4
        assert got.total_weight == pytest.approx(6.0)

    def test_from_estimator(self):
        estimator = DecayingFrequencyEstimator(["hot", "cold"], half_life=100.0)
        for _ in range(8):
            estimator.observe("hot")
        got = features_from_estimator(estimator, 2)
        assert got.items == 2
        assert got.gini > 0.0

    def test_empty_estimator_raises(self):
        class Hollow:
            def weights(self, scale: float = 100.0) -> dict:
                return {}

        with pytest.raises(ValueError, match="observed no items"):
            features_from_estimator(Hollow(), 2)


class TestDecisionTable:
    def test_tiny_goes_exact(self):
        method, options, _ = decide(features(int(DEFAULT_THRESHOLDS["exact_items"])))
        assert (method, options) == ("auto", {})

    def test_small_goes_branch_and_bound(self):
        method, options, _ = decide(features(14))
        assert method == "dfs-bnb"
        assert options == {"budget": int(DEFAULT_THRESHOLDS["bnb_budget"])}

    def test_huge_goes_ptas(self):
        method, _, reason = decide(features(100_000))
        assert method == "ptas"
        assert "quality bound" in reason

    def test_skewed_midsize_goes_shrinking(self):
        assert decide(features(500, gini=0.8))[0] == "shrink-combine"

    def test_moderate_midsize_goes_sorting(self):
        assert decide(features(500, gini=0.3))[0] == "sorting"

    def test_thresholds_override(self):
        method, _, _ = decide(features(500), thresholds={"ptas_items": 400})
        assert method == "ptas"

    def test_unknown_threshold_rejected(self):
        with pytest.raises(TypeError, match="nope"):
            decide(features(500), thresholds={"nope": 1})


class TestMetaPlanner:
    def test_registered(self):
        assert "meta" in available_planners()

    def test_tree_entry_dispatches_and_stamps_the_trail(self):
        result = plan(paper_example_tree(), 2, method="meta")
        assert result.method.startswith("meta:")
        trail = result.stats["meta"]
        assert trail["method"] == "auto"
        assert trail["fell_back"] is False
        assert trail["features"]["items"] == len(
            paper_example_tree().data_nodes()
        )

    def test_catalog_entry_picks_ptas_at_scale(self):
        labels, weights = zipf_catalog(3000)
        result = plan_catalog(labels, weights, 4, method="meta")
        assert result.method == "meta:ptas"
        assert "quality_bound" in result.stats

    def test_catalog_entry_accepts_and_ignores_wire_safe(self):
        # perfbench's air workloads still pass the keyword.
        labels, weights = zipf_catalog(3000)
        flagged = plan_catalog(
            labels, weights, 4, method="meta", wire_safe=True
        )
        plain = plan_catalog(labels, weights, 4, method="meta")
        assert flagged.method == "meta:ptas"
        assert plan_to_doc(flagged) == plan_to_doc(plain)

    def test_matches_the_exact_cost_on_tiny_catalogs(self):
        labels, weights = zipf_catalog(8)
        meta = meta_catalog_plan(labels, weights, 2)
        exact = plan_catalog(labels, weights, 2, method="auto")
        assert meta.cost == pytest.approx(exact.cost)

    def test_perf_counters_name_the_choice(self):
        labels, weights = zipf_catalog(3000)
        perf = PerfRecorder()
        meta_catalog_plan(labels, weights, 4, perf=perf)
        counters = perf.snapshot()["counters"]
        assert counters["planner.meta.decisions"] == 1
        assert counters["planner.meta.choice.ptas"] == 1
        assert "planner.meta.fallbacks" not in counters

    def test_decision_event_is_traced(self):
        labels, weights = zipf_catalog(3000)
        tracer = RingBufferTracer(capacity=8)
        meta_catalog_plan(labels, weights, 4, tracer=tracer)
        events = [
            event for event in tracer.events
            if event.kind == "planner_decision"
        ]
        assert len(events) == 1
        assert events[0].method == "ptas"
        assert events[0].items == 3000
        assert events[0].fell_back is False

    def test_budget_exhaustion_falls_back_to_sorting(self):
        labels, weights = zipf_catalog(14)
        perf = PerfRecorder()
        result = meta_catalog_plan(
            labels, weights, 2,
            thresholds={"bnb_budget": 1},
            perf=perf,
        )
        assert result.method == "meta:sorting"
        assert result.stats["meta"]["fell_back"] is True
        assert perf.snapshot()["counters"]["planner.meta.fallbacks"] == 1

    def test_bad_catalogs_raise(self):
        with pytest.raises(ValueError, match="labels"):
            meta_catalog_plan(["a", "b"], [1.0], 1)
        with pytest.raises(ValueError, match="empty"):
            meta_catalog_plan([], [], 1)

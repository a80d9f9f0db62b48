"""Tests for the Garsia–Wachs alternative construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.tree.alphabetic import (
    alphabetic_cost,
    garsia_wachs_levels,
    garsia_wachs_tree,
    hu_tucker_tree,
)
from repro.tree.builders import data_labels
from repro.tree.validation import is_alphabetic


class TestGarsiaWachsLevels:
    def test_single_leaf(self):
        assert garsia_wachs_levels([7.0]) == [0]

    def test_two_leaves(self):
        assert garsia_wachs_levels([1.0, 9.0]) == [1, 1]

    def test_uniform_balanced(self):
        assert garsia_wachs_levels([1.0] * 8) == [3] * 8

    def test_kraft_equality(self):
        rng = np.random.default_rng(5)
        for size in (2, 6, 11, 17):
            levels = garsia_wachs_levels(list(rng.uniform(1, 50, size)))
            assert sum(2.0 ** -l for l in levels) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            garsia_wachs_levels([])


class TestGarsiaWachsTree:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.integers(min_value=1, max_value=99), min_size=1, max_size=14
        )
    )
    def test_cost_equals_hu_tucker(self, weights):
        """Garsia–Wachs and Hu–Tucker agree on the optimum cost —
        including the tie-heavy inputs where the re-insertion rule's
        `>=` matters."""
        weights = [float(w) for w in weights]
        labels = data_labels(len(weights))
        gw = garsia_wachs_tree(labels, weights)
        ht = hu_tucker_tree(labels, weights)
        assert alphabetic_cost(gw) == pytest.approx(alphabetic_cost(ht))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.just(5), min_size=2, max_size=12
        )
    )
    def test_all_equal_weights_are_handled(self, weights):
        """The pure-tie case: every merge decision is a tie."""
        tree = garsia_wachs_tree(data_labels(len(weights)), list(map(float, weights)))
        tree.validate()

    def test_preserves_leaf_order(self):
        weights = [5.0, 1.0, 30.0, 2.0, 9.0, 9.0]
        tree = garsia_wachs_tree(data_labels(6), weights)
        assert [d.label for d in tree.data_nodes()] == data_labels(6)

    def test_keys_attached(self):
        tree = garsia_wachs_tree(["x", "y"], [1.0, 2.0], keys=[10, 20])
        assert [d.key for d in tree.data_nodes()] == [10, 20]
        assert is_alphabetic(tree)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            garsia_wachs_tree(["A"], [1.0, 2.0])

    def test_substantially_faster_than_hu_tucker(self):
        """The point of having it: linear-ish versus cubic-ish."""
        import time

        rng = np.random.default_rng(1)
        weights = [float(w) for w in rng.integers(1, 1000, 250)]
        labels = data_labels(250)
        start = time.perf_counter()
        garsia_wachs_tree(labels, weights)
        gw_time = time.perf_counter() - start
        start = time.perf_counter()
        hu_tucker_tree(labels, weights)
        ht_time = time.perf_counter() - start
        assert gw_time < ht_time


class TestTieHeavyWeights:
    """Weights with many exact ties, where float sums leave near-ties."""

    @pytest.fixture(scope="class")
    def catalog(self):
        from repro.workloads.weights import zipf_weights

        raw = zipf_weights(np.random.default_rng(2501), 2500, theta=1.2)
        weights = [round(float(weight), 2) for weight in raw]
        assert len(set(weights)) < 200  # tie-heavy
        return [f"K{index:04d}" for index in range(2500)], weights

    def test_builds_a_tree_of_the_levels_cost(self, catalog):
        labels, weights = catalog
        tree = garsia_wachs_tree(labels, weights)
        levels = garsia_wachs_levels(weights)
        assert [leaf.label for leaf in tree.data_nodes()] == labels
        assert is_alphabetic(tree)
        assert alphabetic_cost(tree) == sum(
            weight * level for weight, level in zip(weights, levels)
        )

    def test_sorting_plans_the_catalog_at_fanout_2(self, catalog):
        from repro.planners import plan_catalog

        labels, weights = catalog
        result = plan_catalog(labels, weights, 3, method="sorting", fanout=2)
        assert result.method == "sorting"

    def test_invalid_levels_are_reported_briefly(self):
        from repro.tree.alphabetic import _tree_from_levels

        with pytest.raises(ValueError) as caught:
            _tree_from_levels(["A", "B", "C"], [1.0] * 3, [2, 1, 2], None)
        assert str(caught.value) == (
            "invalid alphabetic level sequence: 3 levels reduce to 3 "
            "subtrees, not one root"
        )

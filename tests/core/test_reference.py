"""Differential tests: overhauled search vs the frozen seed baseline.

:mod:`repro.core.reference` keeps the seed's best-first search (and its
candidate generation) bug-for-bug, which makes three guarantees directly
testable:

* the ``<=`` pop-time dominance fix *reduces* expansions on instances
  with equal-cost duplicate states — without changing the optimum;
* the incremental bound + push-time suppression never expand *more*
  nodes than the seed;
* best-first, DFS branch-and-bound and the seed agree on the optimal
  cost everywhere (property-based, k in 1..3).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import SUITES
from repro.core.bench import build_suite
from repro.core.candidates import PruningConfig
from repro.core.optimal import solve
from repro.core.problem import AllocationProblem
from repro.core.reference import seed_best_first_search, seed_lower_bound
from repro.core.search import (
    best_first_search,
    dfs_branch_and_bound,
    lower_bound,
)
from repro.perf import PerfRecorder
from repro.tree.builders import balanced_tree, random_tree

from ..test_properties import small_trees

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDedupFix:
    """Satellite 1: pop-time ``recorded < g`` → ``<=`` + closed set."""

    def test_fig1_equal_cost_duplicates_expanded_once(self, fig1_tree):
        """On the raw Fig. 1 tree (k=1, no pruning) the seed re-expands
        equal-cost duplicate states; the overhaul must not — at the same
        optimal cost and a path realising it."""
        problem = AllocationProblem(fig1_tree, channels=1)
        seed = seed_best_first_search(problem, PruningConfig.none())
        new = best_first_search(problem, PruningConfig.none())
        assert new.cost == pytest.approx(seed.cost)
        assert new.cost == pytest.approx(391 / 70)
        assert new.nodes_expanded < seed.nodes_expanded
        # Pinned: the seed re-expands exactly the two equal-cost
        # transpositions of the B/E tie.
        assert (seed.nodes_expanded, new.nodes_expanded) == (32, 30)
        # The returned paths both realise the optimal cost.
        for result in (seed, new):
            slots = [
                (slot, node_id)
                for slot, group in enumerate(result.path, start=1)
                for node_id in group
            ]
            cost = sum(
                problem.weight[node_id] * slot for slot, node_id in slots
            )
            assert cost / problem.total_weight == pytest.approx(result.cost)

    def test_tied_weights_collapse_duplicate_states(self):
        """Uniform weights maximise equal-cost transpositions — the
        regime the push+pop transposition table is for."""
        tree = balanced_tree(3, depth=3, weights=[10.0] * 9)
        problem = AllocationProblem(tree, channels=2)
        seed = seed_best_first_search(problem, PruningConfig.none())
        new = best_first_search(problem, PruningConfig.none())
        assert new.cost == pytest.approx(seed.cost)
        assert new.nodes_expanded < seed.nodes_expanded / 5
        assert new.stats["duplicates_suppressed"] > 0

    def test_never_expands_more_than_seed(self, rng):
        for _ in range(8):
            tree = random_tree(rng, 7)
            for channels in (1, 2, 3):
                problem = AllocationProblem(tree, channels=channels)
                seed = seed_best_first_search(problem)
                new = best_first_search(problem)
                assert new.cost == pytest.approx(seed.cost)
                assert new.nodes_expanded <= seed.nodes_expanded


class TestIncrementalBound:
    def test_matches_seed_bound_on_every_reachable_mask(self, fig1_tree):
        problem = AllocationProblem(fig1_tree, channels=2)
        ids = list(range(len(problem)))
        rng = np.random.default_rng(7)
        for _ in range(200):
            placed = int(rng.integers(0, 1 << len(ids)))
            slot = int(rng.integers(0, 6))
            for bound in ("adjacent", "packed"):
                assert lower_bound(problem, placed, slot, bound) == (
                    pytest.approx(seed_lower_bound(problem, placed, slot, bound))
                )


class TestDfsBranchAndBound:
    def test_fig1_two_channels(self, fig1_problem_2ch):
        result = dfs_branch_and_bound(fig1_problem_2ch)
        assert result.cost == pytest.approx(264 / 70)
        assert result.stats["mode"] == "dfs-bnb"

    def test_solve_routes_dfs_bnb(self, fig1_tree):
        perf = PerfRecorder()
        result = solve(fig1_tree, channels=2, method="dfs-bnb", perf=perf)
        assert result.method == "dfs-bnb"
        assert result.cost == pytest.approx(264 / 70)
        assert result.stats["nodes_expanded"] > 0
        assert result.stats["seconds"] >= 0.0
        assert perf.counters["dfs-bnb.nodes_expanded"] == (
            result.stats["nodes_expanded"]
        )

    @settings(max_examples=25, **COMMON)
    @given(small_trees, st.integers(min_value=1, max_value=3))
    def test_three_solvers_agree_on_cost(self, tree, channels):
        """Property: incremental-bound best-first, DFS B&B and the
        from-scratch seed return identical optimal costs."""
        problem = AllocationProblem(tree, channels=channels)
        seed = seed_best_first_search(problem)
        new = best_first_search(problem)
        dfs = dfs_branch_and_bound(problem)
        assert new.cost == pytest.approx(seed.cost)
        assert dfs.cost == pytest.approx(seed.cost)
        assert new.nodes_expanded <= seed.nodes_expanded


class TestBenchSuite:
    def test_suite_is_fixed_and_tagged(self):
        cases = build_suite()
        assert len(cases) >= 12
        assert any(case["ablation_a2"] for case in cases)
        assert any(not case["ablation_a2"] for case in cases)
        names = [case["name"] for case in cases]
        assert len(names) == len(set(names))

    def test_acceptance_checks_hold(self):
        record = SUITES["search-overhaul"].run({"repeats": 2})
        checks = record["checks"]
        assert checks["equal_cost"]
        # Deterministic: strictly fewer expansions over the A2 cases.
        assert (
            record["metrics"]["a2_best_first_nodes_expanded"]
            < record["detail"]["a2_seed_nodes_expanded"]
        )
        assert checks["a2_fewer_nodes"]
        # Wall time: the tied-weight cases dominate with a >5x margin,
        # so this holds well clear of timer noise.
        assert checks["a2_faster"]
        for row in record["detail"]["cases"]:
            assert row["best_first"]["nodes_expanded"] <= (
                row["seed"]["nodes_expanded"]
            )
            assert row["nodes_saved"] == (
                row["seed"]["nodes_expanded"]
                - row["best_first"]["nodes_expanded"]
            )
        # The dedup and memo counters behind the overhaul ride per case.
        best_first = [row["best_first"] for row in record["detail"]["cases"]]
        assert sum(run["duplicates_suppressed"] for run in best_first) > 0
        assert all(run["children_memo_hits"] >= 0 for run in best_first)

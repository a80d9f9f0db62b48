"""Tests for the unified planner registry (:mod:`repro.planners`)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.perf import PerfRecorder
from repro.planners import (
    Planner,
    PlannerNotFound,
    PlanResult,
    available_planners,
    get_planner,
    plan,
    plan_catalog,
    register,
    unregister,
)

BUILTINS = {
    "auto",
    "best-first",
    "dfs-bnb",
    "datatree",
    "corollary1",
    "sorting",
    "shrink-combine",
    "shrink-partition",
    "sv96",
    "budgeted",
}


class TestRegistry:
    def test_builtins_are_registered(self):
        assert BUILTINS <= set(available_planners())

    def test_available_planners_is_sorted(self):
        names = available_planners()
        assert names == sorted(names)

    def test_unknown_name_raises_with_the_catalog(self):
        with pytest.raises(PlannerNotFound) as excinfo:
            get_planner("definitely-not-a-planner")
        message = str(excinfo.value)
        assert "definitely-not-a-planner" in message
        assert "sorting" in message  # the catalog is in the error

    def test_planner_not_found_is_both_repro_and_key_error(self):
        with pytest.raises(ReproError):
            get_planner("nope")
        with pytest.raises(KeyError):
            get_planner("nope")

    def test_register_and_unregister_custom_planner(self, fig1_tree):
        def fixed(tree, channels, *, perf=None, rng=None):
            result = plan(tree, channels, method="sorting")
            return PlanResult(result.schedule, result.cost, "fixed")

        register("test-fixed", fixed)
        try:
            assert "test-fixed" in available_planners()
            result = plan(fig1_tree, 1, method="test-fixed")
            assert result.method == "fixed"
        finally:
            unregister("test-fixed")
        assert "test-fixed" not in available_planners()

    def test_register_works_as_a_decorator(self, fig1_tree):
        @register("test-decorated")
        def decorated(tree, channels, *, perf=None, rng=None):
            return plan(tree, channels, method="sorting")

        try:
            assert plan(fig1_tree, 1, method="test-decorated").cost > 0
        finally:
            unregister("test-decorated")

    def test_builtins_satisfy_the_protocol(self):
        for name in BUILTINS:
            assert isinstance(get_planner(name), Planner)


class TestPlanFacade:
    @pytest.mark.parametrize(
        "method,channels",
        [
            ("auto", 2),
            ("best-first", 2),
            ("dfs-bnb", 2),
            ("datatree", 1),
            ("corollary1", 4),
            ("sorting", 2),
            ("shrink-combine", 2),
            ("shrink-partition", 2),
            ("sv96", 2),
            ("budgeted", 2),
        ],
    )
    def test_every_builtin_returns_a_plan_result(
        self, fig1_tree, method, channels
    ):
        result = plan(fig1_tree, channels, method=method)
        assert isinstance(result, PlanResult)
        assert result.cost == pytest.approx(result.schedule.data_wait())
        assert result.schedule.channels >= 1

    def test_exact_methods_agree_on_the_optimum(self, fig1_tree):
        best_first = plan(fig1_tree, 2, method="best-first")
        dfs = plan(fig1_tree, 2, method="dfs-bnb")
        assert best_first.cost == pytest.approx(dfs.cost)

    def test_heuristics_never_beat_the_optimum(self, fig1_tree):
        optimal = plan(fig1_tree, 2, method="auto").cost
        for method in ("sorting", "shrink-combine", "shrink-partition"):
            assert plan(fig1_tree, 2, method=method).cost >= optimal - 1e-9

    def test_unknown_method_raises(self, fig1_tree):
        with pytest.raises(PlannerNotFound):
            plan(fig1_tree, 1, method="nope")

    def test_unknown_options_raise_type_error(self, fig1_tree):
        with pytest.raises(TypeError):
            plan(fig1_tree, 1, method="sorting", bogus_option=3)

    def test_perf_flows_through_to_the_planner(self, fig1_tree):
        perf = PerfRecorder()
        plan(fig1_tree, 2, method="shrink-combine", perf=perf)
        snapshot = perf.snapshot()
        assert "planner.shrink-combine.seconds" in snapshot["timers"]

    def test_sv96_records_its_channel_inflexibility(self, fig1_tree):
        result = plan(fig1_tree, 2, method="sv96")
        assert result.stats["channels_requested"] == 2
        assert result.stats["channels_used"] == result.schedule.channels


class TestCompileCache:
    def test_program_is_cached_per_instance(self, fig1_tree):
        result = plan(fig1_tree, 2, method="sorting")
        assert result.compile() is result.compile()

    def test_cache_is_not_shared_between_instances(self, fig1_tree):
        """Regression: ``_program`` was a class attribute, so the first
        compiled plan could be handed to every later ``PlanResult``."""
        from dataclasses import fields

        spec = {f.name: f for f in fields(PlanResult)}
        assert "_program" in spec, "_program must be a real dataclass field"
        assert spec["_program"].compare is False
        assert spec["_program"].repr is False
        first = plan(fig1_tree, 2, method="sorting")
        second = plan(fig1_tree, 2, method="sorting")
        compiled_first = first.compile()
        assert second.compile() is not compiled_first
        assert second.compile().schedule is second.schedule

    def test_replacing_the_schedule_invalidates_the_cache(self, fig1_tree):
        first = plan(fig1_tree, 2, method="sorting")
        stale = first.compile()
        first.schedule = plan(fig1_tree, 1, method="sorting").schedule
        fresh = first.compile()
        assert fresh is not stale
        assert fresh.schedule is first.schedule

    def test_dense_level_is_cached_alongside(self, fig1_tree):
        from repro.engine import DenseProgram

        result = plan(fig1_tree, 2, method="sorting")
        dense = result.compile(level="dense")
        assert isinstance(dense, DenseProgram)
        assert result.compile(level="dense") is dense

    def test_dense_cache_invalidates_with_the_program(self, fig1_tree):
        result = plan(fig1_tree, 2, method="sorting")
        stale = result.compile(level="dense")
        result.schedule = plan(fig1_tree, 1, method="sorting").schedule
        fresh = result.compile(level="dense")
        assert fresh is not stale
        assert fresh.channels == 1

    def test_unknown_level_raises(self, fig1_tree):
        result = plan(fig1_tree, 2, method="sorting")
        with pytest.raises(ValueError, match="compile level"):
            result.compile(level="sparse")


class TestBudgetedPlanner:
    def test_affordable_instances_are_solved_exactly(self, fig1_tree):
        result = plan(fig1_tree, 2, method="budgeted")
        assert result.stats["fell_back"] is False
        assert result.cost == pytest.approx(
            plan(fig1_tree, 2, method="auto").cost
        )

    def test_exhausted_budget_falls_back_to_the_named_heuristic(
        self, fig1_tree
    ):
        perf = PerfRecorder()
        result = plan(fig1_tree, 2, method="budgeted", budget=1, perf=perf)
        assert result.stats["fell_back"] is True
        assert result.method == "sorting"
        assert perf.snapshot()["counters"]["planner.budget_fallbacks"] == 1

    def test_exact_threshold_skips_the_search_outright(self, fig1_tree):
        result = plan(
            fig1_tree, 2, method="budgeted", exact_threshold=1
        )
        assert result.stats["fell_back"] is True

    def test_custom_fallback_is_honoured(self, fig1_tree):
        result = plan(
            fig1_tree, 2, method="budgeted", budget=1,
            fallback="shrink-combine",
        )
        assert result.method == "shrink-combine"


class TestPlanCatalog:
    """The catalog facade: validation, the O(n) order scan, streaming."""

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="2 labels but 1 weights"):
            plan_catalog(["a", "b"], [1.0], 1)

    def test_empty_catalog_raises(self):
        with pytest.raises(ValueError, match="empty"):
            plan_catalog([], [], 1)

    def test_unsorted_labels_raise(self):
        with pytest.raises(ValueError, match="sorted key order"):
            plan_catalog(["b", "a", "c"], [1.0, 1.0, 1.0], 1)

    def test_order_scan_is_one_pass(self):
        # The sorted-order check must stay a single adjacent-pair scan
        # (it used to copy and sort the whole catalog per call); the
        # perf counter pins it to exactly n-1 comparisons per call.
        labels = [f"d{i:04d}" for i in range(500)]
        weights = [1.0] * 500
        perf = PerfRecorder()
        plan_catalog(labels, weights, 2, method="ptas", perf=perf)
        plan_catalog(labels, weights, 2, method="ptas", perf=perf)
        counters = perf.snapshot()["counters"]
        assert counters["planner.catalog.order_scans"] == 2
        assert counters["planner.catalog.order_comparisons"] == 2 * 499

    def test_order_scan_stops_at_the_first_inversion(self):
        labels = ["a", "b", "a"] + [f"z{i}" for i in range(100)]
        perf = PerfRecorder()
        with pytest.raises(ValueError, match="sorted key order"):
            plan_catalog(labels, [1.0] * len(labels), 1, perf=perf)
        assert perf.snapshot()["counters"][
            "planner.catalog.order_comparisons"
        ] == 2

    def test_streaming_planners_skip_the_cubic_build(self):
        labels = [f"d{i:04d}" for i in range(300)]
        weights = [float((i % 9) + 1) for i in range(300)]
        perf = PerfRecorder()
        result = plan_catalog(labels, weights, 2, method="ptas", perf=perf)
        assert result.method == "ptas"
        assert "planner.ptas.seconds" in perf.snapshot()["timers"]

    def test_options_pass_through_to_the_streaming_planner(self):
        labels = [f"d{i:04d}" for i in range(3000)]
        weights = [float((i % 9) + 1) for i in range(3000)]
        result = plan_catalog(
            labels, weights, 2, method="meta", thresholds={"ptas_items": 5000}
        )
        assert result.method == "meta:sorting"


class TestEveryPlannerIsFeasible:
    """Property: every registered planner returns a feasible allocation.

    Feasibility re-checked from the placement itself (one node per
    (channel, slot) cell, every child strictly after its parent, every
    node aired), not delegated to the schedule's own validator. A
    planner may decline an instance outside its regime with a clean
    ``ValueError`` (the data-tree solver is single-channel only,
    corollary 1 needs wide channels) — but whenever one *does* answer,
    the answer must be feasible.
    """

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.integers(min_value=1, max_value=50), min_size=2, max_size=12
        ),
        st.integers(min_value=1, max_value=3),
    )
    def test_random_catalogs(self, raw_weights, channels):
        labels = [f"d{i:03d}" for i in range(len(raw_weights))]
        weights = [float(w) for w in raw_weights]
        for method in available_planners():
            try:
                result = plan_catalog(
                    labels, weights, channels, method=method
                )
            except ValueError:
                continue
            # sv96 dictates its own channel count (one per level) by
            # design; every other planner must obey the request.
            width = result.stats.get("channels_used", channels)
            schedule = result.schedule
            cells = set()
            for node in schedule.nodes():
                channel, slot = schedule.position(node)
                assert 1 <= channel <= width, method
                assert slot >= 1, method
                assert (channel, slot) not in cells, method
                cells.add((channel, slot))
                if node.parent is not None:
                    assert slot > schedule.slot_of(node.parent), method
            assert len(cells) == len(schedule.tree.nodes()), method

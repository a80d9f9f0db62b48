"""The ``paper`` bench suite: the paper's own results under the bench gate.

``repro bench paper`` regenerates, at fixed seeds, Table 1 for
m = 2…5 (m = 6 alone costs ~16 s and stays with ``repro table1``), the
Fig. 2 worked example, Fig. 14, and the DESIGN.md ablations A1 (packed
vs adjacent bound), A3 (channel scaling), A4 (heuristics vs Optimal),
A5 (client costs per index structure) and A7 (exact vs greedy DAG
allocation). The checks are the published exact figures and the shape
claims the series must keep. The metrics are the weight-dependent
figures: deterministic at the seeds, so the gate pins them exactly where
the paper can only be matched in magnitude. A2's pruning ladder runs in
the ``search-overhaul`` suite, on the same trees.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from ..broadcast.metrics import expected_access_time
from ..broadcast.pointers import compile_program
from ..broadcast.schedule import BroadcastSchedule
from ..client.simulator import exact_averages
from ..core.optimal import solve
from ..core.problem import AllocationProblem
from ..core.search import best_first_search
from ..extensions.dag import (
    DagAllocationProblem,
    dag_order_cost,
    greedy_dag_order,
    solve_dag,
)
from ..tree.alphabetic import optimal_alphabetic_tree
from ..tree.builders import balanced_tree, paper_example_tree, random_tree
from ..tree.huffman import huffman_tree
from ..workloads.catalogs import stock_catalog
from .comparisons import channel_scaling, compare_methods
from .fig14 import run_fig14
from .table1 import run_table1

__all__ = ["run_paper_bench"]

_TOLERANCE = 1e-9

#: The parameters and seed of the runs this suite regenerates: Table 1
#: and Fig. 14 equal the m <= 5 rows of ``repro table1`` and ``repro
#: fig14``, both at this seed, which also drives A3 and A4. A1, A5 and
#: A7 draw their trees and DAGs from fixed seeds of their own.
_TABLE1_FANOUTS = (2, 3, 4, 5)
_FIG14_TRIALS = 30
_HEURISTIC_TRIALS = 15
_SEED = 2000

#: Table 1's published, weight-independent counts: m -> (By Property 2,
#: By Property 1, 2[, By Property 1, 2, 4]). For m = 4 the paper prints
#: 6306300, a dropped digit of the closed form.
_TABLE1_PUBLISHED = {2: (6, 4, 1), 3: (1680, 186), 4: (63063000, 438048)}


def _table1():
    rows = {
        row.fanout: row for row in run_table1(_TABLE1_FANOUTS, _SEED).rows
    }
    counts = {
        m: (r.by_property2, r.by_properties_1_2, r.by_properties_1_2_4)
        for m, r in rows.items()
    }
    checks = {
        f"table1_m{m}_published": counts[m][: len(published)] == published
        for m, published in _TABLE1_PUBLISHED.items()
    }
    # The closed form, cross-checked by the independent DP enumeration.
    checks["table1_closed_form_matches_enumeration"] = all(
        r.by_property2_enumerated in (None, r.by_property2)
        for r in rows.values()
    )
    metrics = {f"table1_p124_m{m}": c[2] for m, c in counts.items()}
    detail = [
        {**asdict(r), "pruning_percent_1_2_4": r.pruning(counts[m][2])}
        for m, r in rows.items()
    ]
    return metrics, checks, detail


def _fig2():
    tree = paper_example_tree()
    fig2a = BroadcastSchedule.from_sequence(
        tree, [tree.find(label) for label in "13E4CD2AB"]
    )
    placement = {
        tree.find(label): (channel, slot)
        for channel, first, labels in ((1, 1, "12A4C"), (2, 2, "3BED"))
        for slot, label in enumerate(labels, start=first)
    }
    fig2b = BroadcastSchedule(tree, placement, channels=2)
    detail = {
        "fig2a_wait": fig2a.data_wait(),
        "fig2b_wait": fig2b.data_wait(),
        "optimal_wait": {k: solve(tree, channels=k).cost for k in (1, 2, 3)},
    }
    checks = {
        "fig2_example_waits": abs(detail["fig2a_wait"] - 6.0142857) <= 1e-6
        and abs(detail["fig2b_wait"] - 3.8857142) <= 1e-6,
        # In seventieths: the example's weights sum to 70.
        "fig2_optima": all(
            math.isclose(detail["optimal_wait"][k], exact, rel_tol=_TOLERANCE)
            for k, exact in {1: 391 / 70, 2: 264 / 70, 3: 242 / 70}.items()
        ),
    }
    return {}, checks, detail


def _fig14():
    points = run_fig14(trials=_FIG14_TRIALS, seed=_SEED).points
    gaps = [point.gap_percent for point in points]
    checks = {
        "fig14_sorting_never_beats_optimal": all(
            p.sorting_wait >= p.optimal_wait - _TOLERANCE for p in points
        ),
        # Near-uniform weights: Sorting ≈ Optimal; the gap then widens.
        "fig14_gap_widens_with_sigma": gaps[0] < 1.0
        and all(low < high for low, high in zip(gaps, gaps[1:])),
        # The paper's figure spans data waits of 9.5-12.
        "fig14_waits_in_figure_range": all(
            9.0 < wait < 13.0
            for p in points
            for wait in (p.optimal_wait, p.sorting_wait)
        ),
    }
    metrics = {
        f"fig14_gap_percent_sigma{p.sigma:g}": p.gap_percent for p in points
    }
    return metrics, checks, [asdict(point) for point in points]


def _heuristics():
    rng = np.random.default_rng(_SEED)
    results = [
        compare_methods(
            rng, workload, data_count=12, trials=_HEURISTIC_TRIALS
        )
        for workload in ("zipf", "normal")
    ]
    checks = {
        "heuristics_never_beat_optimal": all(
            r.optimal <= getattr(r, name) + _TOLERANCE
            for r in results
            for name in ("sorting", "combine", "partition")
        ),
    }
    metrics = {
        f"heuristics_{name}_gap_percent_{r.workload}": 100.0
        * (getattr(r, name) / r.optimal - 1.0)
        for r in results
        for name in ("sorting", "polished", "combine", "partition")
    }
    return metrics, checks, [asdict(result) for result in results]


def _channels():
    points = channel_scaling(np.random.default_rng(_SEED), fanout=3)
    waits = [point.optimal_wait for point in points]
    (sv96,) = [point for point in points if point.sv96_wait is not None]
    checks = {
        "channels_waits_monotone": all(
            wide <= narrow + _TOLERANCE
            for narrow, wide in zip(waits, waits[1:])
        ),
        "channels_corollary1_at_widest_k": points[-1].corollary1,
        "channels_sv96_never_beats_optimal": (
            sv96.sv96_wait >= sv96.optimal_wait - _TOLERANCE
        ),
    }
    metrics = {
        **{f"channels_optimal_wait_k{k}": waits[k - 1] for k in (1, 2, 3)},
        "channels_sv96_gap_percent": 100.0
        * (sv96.sv96_wait / sv96.optimal_wait - 1.0),
    }
    return metrics, checks, [asdict(point) for point in points]


def _a1_bounds():
    """Best-first under the paper's adjacent ``U(X)`` vs the packed bound."""
    rows = []
    for seed in range(5):
        tree = random_tree(np.random.default_rng(seed), 9)
        problem = AllocationProblem(tree, channels=2)
        adjacent = best_first_search(problem, bound="adjacent")
        packed = best_first_search(problem, bound="packed")
        rows.append({
            "tree_seed": seed,
            "adjacent_nodes": adjacent.nodes_expanded,
            "packed_nodes": packed.nodes_expanded,
            "equal_cost": math.isclose(
                packed.cost, adjacent.cost, rel_tol=_TOLERANCE
            ),
        })
    checks = {
        "a1_packed_no_more_nodes_equal_cost": all(
            r["packed_nodes"] <= r["adjacent_nodes"] and r["equal_cost"]
            for r in rows
        ),
    }
    metrics = {
        "a1_adjacent_nodes_expanded": sum(r["adjacent_nodes"] for r in rows),
        "a1_packed_nodes_expanded": sum(r["packed_nodes"] for r in rows),
    }
    return metrics, checks, rows


def _a5_client():
    """Exact client averages over optimal 2-channel schedules per index."""
    items = stock_catalog(np.random.default_rng(13), count=16, theta=1.2)
    labels = [item.label for item in items]
    weights = [item.weight for item in items]
    trees = {
        # All binary, so the comparison is fanout-for-fanout fair.
        "alphabetic": optimal_alphabetic_tree(labels, weights, fanout=2),
        "balanced": balanced_tree(2, depth=5, weights=weights),
        "huffman": huffman_tree(labels, weights, fanout=2),
    }
    summaries, model_agrees = {}, True
    for name, tree in trees.items():
        schedule = solve(tree, channels=2).schedule
        summaries[name] = summary = exact_averages(compile_program(schedule))
        model_agrees &= math.isclose(
            summary.mean_access_time,
            expected_access_time(schedule),
            rel_tol=_TOLERANCE,
        )
    tuning = {name: s.mean_tuning_time for name, s in summaries.items()}
    checks = {
        "client_exact_averages_equal_model": model_agrees,
        "client_skew_aware_tuning_beats_balanced": all(
            tuning[name] <= tuning["balanced"] + _TOLERANCE
            for name in ("alphabetic", "huffman")
        ),
    }
    metrics = {}
    for name, summary in summaries.items():
        metrics[f"client_{name}_access"] = summary.mean_access_time
        metrics[f"client_{name}_tuning"] = summary.mean_tuning_time
    detail = {name: asdict(s) for name, s in summaries.items()}
    return metrics, checks, detail


def _random_dag(rng: np.random.Generator, count: int) -> DagAllocationProblem:
    keys = [f"n{i}" for i in range(count)]
    weights = {key: float(rng.integers(1, 50)) for key in keys}
    edges = [
        (keys[i], keys[j])
        for i in range(count)
        for j in range(i + 1, count)
        if rng.random() < 0.25
    ]
    return DagAllocationProblem(weights, edges, channels=2)


def _a7_dag():
    """Exact DAG search vs the weight-density greedy, 11 nodes, k = 2."""
    rows = []
    for seed in range(6):
        problem = _random_dag(np.random.default_rng(seed), 11)
        exact = solve_dag(problem).cost
        greedy = dag_order_cost(problem, greedy_dag_order(problem))
        rows.append({
            "dag_seed": seed,
            "exact_wait": exact,
            "greedy_wait": greedy,
            "gap_percent": 100.0 * (greedy / exact - 1.0),
        })
    mean_gap = sum(row["gap_percent"] for row in rows) / len(rows)
    checks = {
        "a7_greedy_never_beats_exact": all(
            r["greedy_wait"] >= r["exact_wait"] - _TOLERANCE for r in rows
        ),
        # The density rule stays near-exact.
        "a7_mean_greedy_gap_under_15_percent": mean_gap < 15.0,
    }
    return {"a7_mean_greedy_gap_percent": mean_gap}, checks, rows


def run_paper_bench() -> dict:
    """Regenerate the paper's results; return flat metrics and checks."""
    result: dict = {"metrics": {}, "checks": {}, "detail": {}}
    for name, part in (
        ("table1", _table1),
        ("fig2", _fig2),
        ("fig14", _fig14),
        ("heuristics", _heuristics),
        ("channels", _channels),
        ("a1_bounds", _a1_bounds),
        ("a5_client", _a5_client),
        ("a7_dag", _a7_dag),
    ):
        metrics, checks, detail = part()
        result["metrics"].update(metrics)
        result["checks"].update(checks)
        result["detail"][name] = detail
    return result

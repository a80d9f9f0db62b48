"""The ``search-overhaul`` bench suite: the overhauled search vs the frozen seed.

:data:`repro.bench.SUITES` runs a fixed, fully seeded suite of
allocation instances through three solvers —

* the **seed** best-first search (:mod:`repro.core.reference`, frozen
  bug-for-bug: from-scratch bounds, ``<`` pop-time dominance, no
  children memo),
* the **overhauled** best-first search (incremental bounds, push+pop
  transposition pruning, memoised ``reduced_children``), and
* the **DFS branch-and-bound** mode —

and reports nodes expanded and wall seconds per case plus suite totals.
The acceptance checks: over the ablation-A2 cases the overhaul must
expand strictly fewer nodes and take less wall time than the seed at
equal optimal cost.

The suite deliberately mixes three regimes:

* the **A2 ladder** — the pruning-ablation rule sets (none → +P1 →
  +filter → +subset → paper) on the two A2 experiment trees, so the
  numbers line up with ``benchmarks/test_bench_ablation_pruning.py``;
* the **Fig. 1 paper example**, where equal-cost duplicate states make
  the ``<=`` dedup fix directly visible (30 vs 32 expansions at k=1
  without pruning);
* **tied-weight and larger trees**, where transpositions abound and the
  incremental bound's memoisation pays most.

Every solve is timed by :func:`repro.perf.measure`; a case's seconds
are the primitive's ``min``, so the totals stay comparable with the
best-of-N figures recorded before it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..perf import measure
from .candidates import PruningConfig
from .problem import AllocationProblem
from .reference import seed_best_first_search
from .search import best_first_search, dfs_branch_and_bound
from ..tree.builders import balanced_tree, paper_example_tree, random_tree

__all__ = ["build_suite", "run_search_bench"]

_COST_TOLERANCE = 1e-9

# The cumulative §3.2 rule ladder of ablation A2 (analysis/comparisons.py).
_LADDER: tuple[tuple[str, PruningConfig], ...] = (
    ("none", PruningConfig.none()),
    ("p1", PruningConfig.none().without(forced_completion=True)),
    (
        "p1+filter",
        PruningConfig.none().without(
            forced_completion=True, candidate_filter=True
        ),
    ),
    (
        "p1+filter+subset",
        PruningConfig.none().without(
            forced_completion=True, candidate_filter=True, subset_rules=True
        ),
    ),
    ("paper", PruningConfig.paper()),
)


def build_suite() -> list[dict]:
    """The fixed bench instances: name, problem, rule set, A2 membership."""
    cases: list[dict] = []

    def add(name, tree, channels, pruning_name, pruning, ablation_a2):
        cases.append(
            {
                "name": name,
                "problem": AllocationProblem(tree, channels=channels),
                "channels": channels,
                "pruning": pruning_name,
                "config": pruning,
                "ablation_a2": ablation_a2,
            }
        )

    # Ablation-A2 suite: the full rule ladder on the two A2 trees
    # (benchmarks/test_bench_ablation_pruning.py uses seed 8; the
    # regenerated artifact uses seed 2000) plus the paper's Fig. 1
    # example and a tied-weight tree under the ladder endpoints —
    # weight ties are what create the equal-cost duplicate states the
    # dedup fix removes.
    a2_tree_bench = random_tree(np.random.default_rng(8), 8)
    a2_tree_artifact = random_tree(
        np.random.default_rng(2000), 8, max_fanout=3
    )
    for label, config in _LADDER:
        add(f"a2/rng8-n8/k2/{label}", a2_tree_bench, 2, label, config, True)
        add(
            f"a2/rng2000-n8/k2/{label}",
            a2_tree_artifact, 2, label, config, True,
        )
    fig1 = paper_example_tree()
    for channels in (1, 2):
        for label in ("none", "paper"):
            config = dict(_LADDER)[label]
            add(
                f"a2/fig1/k{channels}/{label}",
                fig1, channels, label, config, True,
            )
    tied = balanced_tree(3, depth=3, weights=[10.0] * 9)
    for label in ("none", "paper"):
        add(
            f"a2/tied-3x3/k2/{label}",
            tied, 2, label, dict(_LADDER)[label], True,
        )

    # Larger trees, paper rules only — the production configuration.
    add(
        "large/rng7-n13/k2/paper",
        random_tree(np.random.default_rng(7), 13, max_fanout=3),
        2, "paper", PruningConfig.paper(), False,
    )
    add(
        "large/rng11-n14/k3/paper",
        random_tree(np.random.default_rng(11), 14, max_fanout=4),
        3, "paper", PruningConfig.paper(), False,
    )
    return cases


def run_search_bench(repeats: int = 1) -> dict:
    """Run the suite; return its metrics, checks and per-case detail."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    records: list[dict] = []
    for case in build_suite():
        problem, config = case["problem"], case["config"]
        runs = {}
        for solver, search in (
            ("seed", seed_best_first_search),
            ("best_first", best_first_search),
            ("dfs_bnb", dfs_branch_and_bound),
        ):
            result, timing = measure(
                partial(search, problem, config), repeats=repeats
            )
            runs[solver] = {
                "nodes_expanded": result.nodes_expanded,
                "nodes_generated": result.nodes_generated,
                "seconds": timing.min,
                "timing": timing.to_dict(),
                "cost": result.cost,
            }
            if solver == "best_first":
                for counter in ("duplicates_suppressed", "children_memo_hits"):
                    runs[solver][counter] = result.stats[counter]
        seed_cost = runs["seed"]["cost"]
        for solver in ("best_first", "dfs_bnb"):
            if abs(runs[solver]["cost"] - seed_cost) > _COST_TOLERANCE * max(
                1.0, seed_cost
            ):
                raise AssertionError(
                    f"{case['name']}: cost mismatch — seed {seed_cost} vs "
                    f"{solver} {runs[solver]['cost']}"
                )
        records.append(
            {
                "name": case["name"],
                "channels": case["channels"],
                "pruning": case["pruning"],
                "data_count": len(problem.data_ids),
                "ablation_a2": case["ablation_a2"],
                "cost": seed_cost,
                **runs,
                "speedup": (
                    runs["seed"]["seconds"] / runs["best_first"]["seconds"]
                    if runs["best_first"]["seconds"]
                    else float("inf")
                ),
                "nodes_saved": (
                    runs["seed"]["nodes_expanded"]
                    - runs["best_first"]["nodes_expanded"]
                ),
            }
        )

    def total(rows, solver, key):
        return sum(row[solver][key] for row in rows)

    a2_rows = [row for row in records if row["ablation_a2"]]
    best_first_seconds = total(records, "best_first", "seconds")
    a2_seed_nodes = total(a2_rows, "seed", "nodes_expanded")
    a2_best_first_nodes = total(a2_rows, "best_first", "nodes_expanded")
    a2_seed_seconds = total(a2_rows, "seed", "seconds")
    a2_best_first_seconds = total(a2_rows, "best_first", "seconds")
    return {
        "metrics": {
            "best_first_nodes_expanded": total(
                records, "best_first", "nodes_expanded"
            ),
            "a2_best_first_nodes_expanded": a2_best_first_nodes,
            "best_first_seconds": best_first_seconds,
            "dfs_bnb_seconds": total(records, "dfs_bnb", "seconds"),
            "speedup": total(records, "seed", "seconds") / best_first_seconds,
        },
        "checks": {
            "equal_cost": True,  # raised above otherwise
            "a2_fewer_nodes": a2_best_first_nodes < a2_seed_nodes,
            "a2_faster": a2_best_first_seconds < a2_seed_seconds,
        },
        "detail": {
            "seed_nodes_expanded": total(records, "seed", "nodes_expanded"),
            "a2_seed_nodes_expanded": a2_seed_nodes,
            "a2_speedup": a2_seed_seconds / a2_best_first_seconds,
            "cases": records,
        },
    }

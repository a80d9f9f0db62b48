"""Cross-method comparison sweeps (the ablation benches' engine).

Beyond the paper's two published artifacts, DESIGN.md commits to
ablations of the design choices: how the heuristics and baselines stack
up against the optimum across skew levels, how the data wait scales with
channel count (and where Corollary 1 kicks in), and how much each
pruning rule buys the search. The runners here produce those series;
the ``paper`` bench suite (:mod:`repro.analysis.bench`) gates them and
the CLI renders them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.flat import flat_broadcast_wait
from ..baselines.level_allocation import sv96_channels_needed, sv96_level_schedule
from ..core.candidates import PruningConfig
from ..core.problem import AllocationProblem
from ..core.search import best_first_search
from ..heuristics.local_search import polish_schedule
from ..planners import plan
from ..tree.builders import balanced_tree, random_tree
from ..workloads.weights import normal_weights, zipf_weights
from .reporting import format_table

__all__ = [
    "MethodComparison",
    "compare_methods",
    "format_method_comparison",
    "ChannelScalingPoint",
    "channel_scaling",
    "format_channel_scaling",
    "PruningAblationRow",
    "pruning_ablation",
    "format_pruning_ablation",
    "IntroComparisonRow",
    "intro_comparison",
    "format_intro_comparison",
]


# ---------------------------------------------------------------------------
# Heuristics & baselines vs optimal (single channel)
# ---------------------------------------------------------------------------

@dataclass
class MethodComparison:
    """Average single-channel data wait per method over a tree sample."""

    workload: str
    optimal: float
    sorting: float
    polished: float
    combine: float
    partition: float
    flat: float
    trials: int


def compare_methods(
    rng: np.random.Generator,
    workload: str = "zipf",
    data_count: int = 12,
    trials: int = 20,
) -> MethodComparison:
    """Average data wait of every method over random trees.

    ``workload`` selects the weight distribution: ``"zipf"`` (skewed) or
    ``"normal"`` (the Fig. 14 family).
    """
    sums = {"optimal": 0.0, "sorting": 0.0, "polished": 0.0,
            "combine": 0.0, "partition": 0.0, "flat": 0.0}
    for _ in range(trials):
        tree = random_tree(rng, data_count, max_fanout=4)
        if workload == "zipf":
            weights = zipf_weights(rng, data_count)
        elif workload == "normal":
            weights = normal_weights(rng, data_count)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        for leaf, weight in zip(tree.data_nodes(), weights):
            leaf.weight = weight
        # Every allocation strategy is looked up in the planner
        # registry by name; only the polish post-pass and the no-index
        # baseline fall outside the planner abstraction.
        sums["optimal"] += plan(tree, 1, method="auto").cost
        sorted_schedule = plan(tree, 1, method="sorting").schedule
        sums["sorting"] += sorted_schedule.data_wait()
        sums["polished"] += polish_schedule(sorted_schedule).data_wait()
        sums["combine"] += plan(
            tree, 1, method="shrink-combine", max_data_nodes=8
        ).cost
        sums["partition"] += plan(
            tree, 1, method="shrink-partition", max_data_nodes=8
        ).cost
        sums["flat"] += flat_broadcast_wait(tree)
    return MethodComparison(
        workload=workload,
        optimal=sums["optimal"] / trials,
        sorting=sums["sorting"] / trials,
        polished=sums["polished"] / trials,
        combine=sums["combine"] / trials,
        partition=sums["partition"] / trials,
        flat=sums["flat"] / trials,
        trials=trials,
    )


def format_method_comparison(results: list[MethodComparison]) -> str:
    headers = [
        "workload", "Optimal", "Sorting", "Sorting+polish", "Combine",
        "Partition", "Flat (no index)", "trials",
    ]
    rows = [
        [r.workload, r.optimal, r.sorting, r.polished, r.combine,
         r.partition, r.flat, r.trials]
        for r in results
    ]
    return format_table(
        headers, rows, title="Heuristics and baselines vs Optimal (1 channel)"
    )


# ---------------------------------------------------------------------------
# Channel scaling (and the Corollary 1 regime)
# ---------------------------------------------------------------------------

@dataclass
class ChannelScalingPoint:
    channels: int
    optimal_wait: float
    sorting_wait: float
    sv96_wait: float | None
    corollary1: bool


def channel_scaling(
    rng: np.random.Generator,
    fanout: int = 3,
    depth: int = 3,
    max_channels: int | None = None,
    sigma: float = 30.0,
) -> list[ChannelScalingPoint]:
    """Optimal / Sorting / [SV96] data wait as channels grow.

    [SV96] has a fixed channel demand (one per level), so its single
    figure appears only on the row with that exact channel count —
    precisely the inflexibility §1.1 criticises.
    """
    leaf_count = fanout ** (depth - 1)
    weights = normal_weights(rng, leaf_count, mean=100.0, sigma=sigma)
    tree = balanced_tree(fanout, depth=depth, weights=weights)
    width = tree.max_level_width()
    if max_channels is None:
        max_channels = width + 1
    sv96_need = sv96_channels_needed(tree)
    sv96_wait = sv96_level_schedule(tree).data_wait()

    points = []
    for channels in range(1, max_channels + 1):
        optimal_wait = plan(tree, channels, method="auto").cost
        sorting_wait = plan(tree, channels, method="sorting").cost
        points.append(
            ChannelScalingPoint(
                channels=channels,
                optimal_wait=optimal_wait,
                sorting_wait=sorting_wait,
                sv96_wait=sv96_wait if channels == sv96_need else None,
                corollary1=channels >= width,
            )
        )
    return points


def format_channel_scaling(points: list[ChannelScalingPoint]) -> str:
    headers = ["k", "Optimal", "Sorting", "SV96 (needs k=depth)", "Corollary 1"]
    rows = [
        [p.channels, p.optimal_wait, p.sorting_wait, p.sv96_wait,
         "yes" if p.corollary1 else ""]
        for p in points
    ]
    return format_table(headers, rows, title="Data wait vs channel count")


# ---------------------------------------------------------------------------
# Pruning-rule ablation (search effort)
# ---------------------------------------------------------------------------

@dataclass
class PruningAblationRow:
    label: str
    nodes_expanded: int
    cost: float


def pruning_ablation(
    rng: np.random.Generator,
    data_count: int = 7,
    channels: int = 2,
    bound: str = "packed",
) -> list[PruningAblationRow]:
    """Best-first effort under cumulative §3.2 rule sets (one tree)."""
    tree = random_tree(rng, data_count, max_fanout=3)
    problem = AllocationProblem(tree, channels=channels)
    configs = [
        ("no pruning (Algorithm 1)", PruningConfig.none()),
        ("+ Property 1", PruningConfig.none().without(forced_completion=True)),
        (
            "+ candidate filter (P2/P3)",
            PruningConfig.none().without(
                forced_completion=True, candidate_filter=True
            ),
        ),
        (
            "+ subset rules",
            PruningConfig.none().without(
                forced_completion=True, candidate_filter=True, subset_rules=True
            ),
        ),
        ("+ swap filter (full paper)", PruningConfig.paper()),
    ]
    rows = []
    for label, config in configs:
        result = best_first_search(problem, pruning=config, bound=bound)
        rows.append(
            PruningAblationRow(
                label=label,
                nodes_expanded=result.nodes_expanded,
                cost=result.cost,
            )
        )
    return rows


def format_pruning_ablation(rows: list[PruningAblationRow]) -> str:
    headers = ["rule set", "nodes expanded", "optimal wait"]
    body = [[r.label, r.nodes_expanded, r.cost] for r in rows]
    return format_table(
        headers, body, title="Pruning ablation (best-first search effort)"
    )


# ---------------------------------------------------------------------------
# The §1 two-camps comparison: replication vs indexing
# ---------------------------------------------------------------------------

@dataclass
class IntroComparisonRow:
    """One access/tuning trade-off row of the §1 comparison."""

    scheme: str
    expected_wait: float
    expected_tuning: float | None  # None = no doze support (no index)


def intro_comparison(
    rng: np.random.Generator,
    data_count: int = 12,
    theta: float = 1.2,
    fanout: int = 3,
) -> list[IntroComparisonRow]:
    """Compare the paper's two prior-art camps on one Zipf workload.

    * flat cycle (no replication, no index) — the strawman;
    * [Ach95] Broadcast Disks — replication lowers the *wait* for hot
      items but, with no index, the receiver listens continuously
      (tuning time = access time);
    * the paper's approach — an alphabetic index adds wait (index
      buckets take airtime) but lets the receiver doze.
    """
    from ..baselines.broadcast_disks import (
        broadcast_disk_cycle,
        expected_wait_flat,
        expected_wait_of_cycle,
        partition_into_disks,
    )
    from ..broadcast.metrics import expected_tuning_time
    from ..tree.alphabetic import optimal_alphabetic_tree
    from ..tree.builders import data_labels
    from ..workloads.weights import zipf_weights

    weights = zipf_weights(rng, data_count, theta=theta, shuffle=False)
    labels = data_labels(data_count)
    items_tree = optimal_alphabetic_tree(labels, weights, fanout=fanout)
    leaves = items_tree.data_nodes()

    rows = [
        IntroComparisonRow(
            "flat cycle (no index, no replication)",
            expected_wait_flat(leaves),
            None,
        )
    ]
    layout = partition_into_disks(
        leaves, num_disks=min(3, data_count), relative_frequencies=None
    )
    rows.append(
        IntroComparisonRow(
            "[Ach95] broadcast disks (replication)",
            expected_wait_of_cycle(broadcast_disk_cycle(layout)),
            None,
        )
    )
    optimal = plan(items_tree, 1, method="auto")
    rows.append(
        IntroComparisonRow(
            "indexed optimum (this paper)",
            optimal.cost,
            expected_tuning_time(optimal.schedule),
        )
    )
    from ..baselines.signatures import build_signature_broadcast

    signature_stats = build_signature_broadcast(
        leaves
    ).weighted_lookup_stats()
    rows.append(
        IntroComparisonRow(
            "[LL96] simple signatures (filtering)",
            signature_stats["access_time"],
            signature_stats["tuning_time"],
        )
    )
    return rows


def format_intro_comparison(rows: list[IntroComparisonRow]) -> str:
    body = [
        [
            row.scheme,
            row.expected_wait,
            row.expected_tuning
            if row.expected_tuning is not None
            else "= wait (no doze)",
        ]
        for row in rows
    ]
    return format_table(
        ["scheme", "expected wait (slots)", "tuning (buckets)"],
        body,
        title="The §1 trade-off: replication lowers waits, indexing lowers tuning",
    )

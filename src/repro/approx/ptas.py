"""The ``"ptas"`` planner: one alphabetic index tree, packed level by level.

Planning 10⁴–10⁶ items cannot afford the cubic optimal index
construction, so this planner reads the catalog directly and stays
near-linear end to end:

1. one alphabetic search tree over the whole catalog, leaves in key
   order, via :func:`repro.tree.alphabetic.build_index` (exact interval
   DP when small, weight-balanced when large);
2. a single-child global root on channel 1 at slot 1 above it;
3. the tree packed level by level across all ``k`` channels from slot
   2, every node strictly after its parent (:func:`_pack_group`).

Step 3 wastes at most one underfull slot per tree level, which gives an
**a-priori quality bound**: with ``m`` tree nodes and ``depth`` levels
every item airs by slot ``2 + ceil(m/k) + depth``, so

    ``data_wait  <=  2 + ceil(m/k) + depth``

before any schedule is built. The returned plan carries that bound,
the matching information-theoretic lower bound (heaviest items in the
earliest of the ``k·t`` available data cells — no feasible schedule can
beat it), their ratio, and the tree's ``nodes``, ``depth`` and
``slots`` in ``stats``.

The name comes from the Kenyon–Schabanel–Young PTAS for data broadcast
(see PAPERS.md), whose geometric weight classes this planner used to
give one subtree each, on channel groups sized by the square-root
rule. That grouping was dropped. Subtrees per weight group under a
shared root interleave the groups' key ranges, so a tuner descending
the index by key (§1, §2.1) cannot route the plan: in ``repro cluster
loadtest --planner ptas --items 2000 --channels 8 --shards 1`` the
lookup for ``K0751`` ended at ``K0761``, and every multi-group data
wait was a figure no tuner could achieve.
Where groups formed, the one tree was also better (fanout 3, data wait
with groups → one tree, on :func:`repro.approx.bench.zipf_catalog`
catalogs with seed 2000): Zipf 0.35 on 4 channels, 2,000 items 699.4 →
501.2; Zipf 0.95 on 16 channels, 100k items 3,094 → 2,123; Zipf 1.2 on
16 channels, 5,000 items 86.3 → 58.6; five ultra-heavy items in a light
2,000-item catalog on 4 channels 239.8 → 154.9. It loses only on flat
weights at 8–16 channels, by 1–7% (Zipf 0.35, 10k items on 8 channels
1,217 → 1,298; 100k items on 16 channels 6,311 → 6,656). Catalogs that
formed a single group plan exactly as before.
"""

from __future__ import annotations

import contextlib
import gc
import math
from typing import Sequence

import numpy as np

from ..broadcast.schedule import BroadcastSchedule
from ..perf import PerfRecorder
from ..planners import PlanResult, register
from ..tree.alphabetic import build_index
from ..tree.index_tree import IndexTree
from ..tree.node import IndexNode, Node

__all__ = [
    "ptas_catalog_plan",
    "plan_ptas",
]


def _levels(root: Node) -> list[list[Node]]:
    """Nodes under ``root`` grouped by depth, ``[0]`` being ``[root]``."""
    levels: list[list[Node]] = []
    frontier: list[Node] = [root]
    while frontier:
        levels.append(frontier)
        nxt: list[Node] = []
        for node in frontier:
            if isinstance(node, IndexNode):
                nxt.extend(node.children)
        frontier = nxt
    return levels


def _pack_group(
    levels: list[list[Node]],
    width: int,
    first_channel: int,
    start_slot: int,
    placement: dict[Node, tuple[int, int]],
    slot_of: dict[int, int],
) -> int:
    """Pack ``levels`` ``width`` nodes per slot, from ``start_slot``.

    A node airs only strictly after its parent. Walking level by level,
    every parent is already placed, and parent slots are non-decreasing
    along a level (slots were assigned in that same order one level up)
    — so a single pass with a running (slot, lane) cursor suffices: a
    node whose parent sits at or past the cursor's slot pushes the
    cursor to ``parent_slot + 1``, abandoning the partial slot. That
    abandonment costs at most one underfull slot per level, so the
    tree finishes within ``ceil(n/width) + depth`` slots — exactly the
    slack the a-priori quality bound budgets for. O(n) overall.
    Returns the number of slots consumed.
    """
    slot = start_slot
    lane = 0
    for level in levels:
        for node in level:
            parent = node.parent
            if parent is not None:
                parent_slot = slot_of[id(parent)]
                if parent_slot >= slot:
                    slot = parent_slot + 1
                    lane = 0
            placement[node] = (first_channel + lane, slot)
            slot_of[id(node)] = slot
            lane += 1
            if lane == width:
                lane = 0
                slot += 1
    return slot - start_slot + (1 if lane else 0)


def ptas_catalog_plan(
    labels: Sequence[str],
    weights: Sequence[float],
    channels: int = 1,
    *,
    fanout: int = 3,
    keys: Sequence[object] | None = None,
    perf: PerfRecorder | None = None,
    rng: np.random.Generator | None = None,
) -> PlanResult:
    """Plan a keyed catalog directly — the streaming entry point.

    This is what :func:`repro.planners.plan_catalog` dispatches to for
    ``method="ptas"``: no intermediate globally-optimal index tree is
    built (that construction is cubic), so million-item catalogs plan in
    near-linear time. ``labels`` must be in ascending key order, as
    everywhere in the catalog API.
    """
    del rng  # deterministic
    if len(labels) != len(weights):
        raise ValueError(
            f"catalog has {len(labels)} labels but {len(weights)} weights"
        )
    if not labels:
        raise ValueError("cannot plan an empty catalog")
    if channels < 1:
        raise ValueError("channels must be >= 1")
    timer = (
        perf.timer("planner.ptas.seconds")
        if perf is not None
        else contextlib.nullcontext()
    )
    # Building a million-node tree allocates millions of long-lived
    # container objects; every generational collection in that window
    # re-walks all of them and finds nothing (the tree is alive), which
    # measured as 2-4x the entire planning time. Nodes form no cycles
    # the collector is needed for — parent/child links die with the
    # tree via refcounting — so pause collection for the build the way
    # bulk loaders do, restoring whatever state the caller had.
    collector_was_enabled = gc.isenabled()
    if collector_was_enabled:
        gc.disable()
    try:
        with timer:
            result = _ptas_build(
                list(labels),
                [float(w) for w in weights],
                channels,
                fanout=fanout,
                keys=list(keys) if keys is not None else None,
            )
    finally:
        if collector_was_enabled:
            gc.enable()
    if perf is not None:
        perf.count("planner.ptas.plans")
        perf.count("planner.ptas.items", len(labels))
    return result


def _ptas_build(
    labels: list[str],
    weights: list[float],
    channels: int,
    *,
    fanout: int,
    keys: list[object] | None,
) -> PlanResult:
    root = build_index(labels, weights, fanout=fanout, keys=keys).root
    levels = _levels(root)
    for level in levels:
        for node in level:
            if isinstance(node, IndexNode):
                # build_index numbered the tree from its own root; the
                # global root above it shifts every preorder number by
                # one, so blank them for the renumber below.
                node.label = ""
                node.order = 0

    global_root = IndexNode("", [root])
    # build_index just validated the tree and the only new structure is
    # this root (add_child wired the parent pointer), so re-walking 10⁶
    # nodes to re-validate would only burn the time the streaming path
    # exists to save. Renumbering still runs: it assigns the fresh
    # labels the blanking above prepared for.
    tree = IndexTree(global_root, validate=False)

    placement: dict[Node, tuple[int, int]] = {global_root: (1, 1)}
    slot_of: dict[int, int] = {id(global_root): 1}
    slots = _pack_group(levels, channels, 1, 2, placement, slot_of)

    schedule = BroadcastSchedule(
        tree, placement, channels=channels, validate=True
    )
    cost = schedule.data_wait()

    nodes = sum(len(level) for level in levels)
    depth = len(levels)
    bound = float(2 + math.ceil(nodes / channels) + depth)
    lower = _data_wait_lower_bound(weights, channels)
    stats = {
        "nodes": nodes,
        "depth": depth,
        "slots": slots,
        "quality_bound": bound,
        "lower_bound": lower,
        "quality_ratio": bound / lower if lower > 0 else float("inf"),
    }
    return PlanResult(schedule, cost, "ptas", stats)


def _data_wait_lower_bound(weights: Sequence[float], channels: int) -> float:
    """No feasible schedule's data wait can be lower than this.

    Data nodes occupy distinct (channel, slot) cells, so at most
    ``channels`` items can air per slot; pairing the heaviest weights
    with the earliest slots (rearrangement inequality) gives the floor
    ``Σ w_(i) · ceil(i/k) / Σ w`` over descending-sorted weights.
    """
    values = np.sort(np.asarray(weights, dtype=float))[::-1]
    total = values.sum()
    if total <= 0:
        return 0.0
    slots = np.ceil(np.arange(1, values.size + 1) / channels)
    return float((values * slots).sum() / total)


@register("ptas")
def plan_ptas(
    tree: IndexTree,
    channels: int,
    *,
    perf: PerfRecorder | None = None,
    rng: np.random.Generator | None = None,
    fanout: int | None = None,
) -> PlanResult:
    """The registry face of the one-tree planner.

    Takes any index tree, extracts its leaf catalog (labels, weights,
    keys in leaf order) and **re-indexes** it with
    :func:`~repro.tree.alphabetic.build_index` — the input tree's
    internal structure is advisory only, exactly as the shrinking
    heuristic treats it. ``fanout`` defaults to the input tree's own
    fanout (floor 2).
    """
    leaves = tree.data_nodes()
    labels = [leaf.label for leaf in leaves]
    weights = [leaf.weight for leaf in leaves]
    keys = [leaf.key for leaf in leaves]
    if all(key is None for key in keys):
        keys = None
    if fanout is None:
        fanout = max(2, tree.fanout())
    return ptas_catalog_plan(
        labels,
        weights,
        channels,
        fanout=fanout,
        keys=keys,
        perf=perf,
        rng=rng,
    )


#: The catalog-direct capability :func:`repro.planners.plan_catalog`
#: dispatches on — planning straight from (labels, weights) without the
#: cubic global index construction.
plan_ptas.from_catalog = ptas_catalog_plan

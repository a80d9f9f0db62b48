"""The ``1_To_k_BroadcastChannel`` procedure (§4.2).

Allocates a *sorted* index tree onto k channels: the tree is flattened
to its sorted preorder (each node stamped with a sequence number), nodes
are bucketed by level, and the levels are scanned top down — each
level's list fills one slot across the channels, leftovers merging into
the next level's list in sequence-number order; whatever remains after
the last level is dumped k per slot.

A slot's scan stops once the slot holds k nodes, and a node is merged
or passed over at most once per tree level, so the procedure runs in
``O(N·h)`` for N nodes and height h: linear in N for the fixed heights
of catalog trees, the paper's "linear time".

One deviation from the paper's pseudocode, for correctness: the paper's
merge step can land a node in the same slot as its parent (the leftover
parent joins the next level's list, which airs in one slot row with that
parent's children). We defer such a child to the next slot — taking the
next node in sequence instead — so every produced schedule satisfies the
§2.2 feasibility condition. The deviation is documented in DESIGN.md.
"""

from __future__ import annotations

from typing import Sequence

from ..broadcast.assembly import assemble_schedule
from ..broadcast.schedule import BroadcastSchedule
from ..perf import PerfRecorder
from ..tree.index_tree import IndexTree
from ..tree.node import Node
from .sorting import sorting_order

__all__ = ["allocate_sorted_tree", "sorting_schedule"]


def allocate_sorted_tree(
    tree: IndexTree,
    channels: int,
    *,
    order: Sequence[Node] | None = None,
    perf: PerfRecorder | None = None,
) -> BroadcastSchedule:
    """Run ``1_To_k_BroadcastChannel`` over ``tree``.

    ``order`` overrides the sorted preorder (it must be a preorder-
    compatible linear sequence of all tree nodes); by default the §4.2
    sorting comparator produces it. ``perf``, when given, records the
    heuristic's wall time and node/slot counts under ``heuristic.*``.
    Both are keyword-only. Returns a validated schedule.
    """
    if channels < 1:
        raise ValueError("channels must be >= 1")
    if perf is not None:
        with perf.timer("heuristic.seconds"):
            schedule = allocate_sorted_tree(tree, channels, order=order)
        perf.count("heuristic.runs")
        perf.count("heuristic.nodes", len(schedule.tree.nodes()))
        perf.count("heuristic.slots", schedule.cycle_length)
        return schedule
    if order is None:
        order = sorting_order(tree)

    sequence_number = {id(node): position for position, node in enumerate(order)}
    depth = tree.depth()
    level_lists: list[list[Node]] = [[] for _ in range(depth + 1)]
    for node in order:  # ascending sequence number by construction
        level_lists[node.depth()].append(node)

    groups: list[list[Node]] = []
    pool: list[Node] = []
    start = 0
    placed: set[int] = set()
    for level in range(1, depth + 1):
        pool = _merge_by_sequence(pool[start:], level_lists[level], sequence_number)
        group, start = _take_slot(pool, start=0, channels=channels, placed=placed)
        groups.append(group)
    while start < len(pool):
        group, start = _take_slot(pool, start=start, channels=channels, placed=placed)
        groups.append(group)
    return assemble_schedule(tree, groups, channels)


def sorting_schedule(
    tree: IndexTree,
    channels: int,
    *,
    perf: PerfRecorder | None = None,
) -> BroadcastSchedule:
    """Sorting heuristic end to end: sort, then allocate onto k channels.

    For ``channels == 1`` this equals the preorder broadcast of the
    sorted tree (the Fig. 13 construction). ``perf`` instruments as in
    :func:`allocate_sorted_tree`.
    """
    if perf is not None and channels == 1:
        with perf.timer("heuristic.seconds"):
            schedule = sorting_schedule(tree, channels)
        perf.count("heuristic.runs")
        perf.count("heuristic.nodes", len(schedule.tree.nodes()))
        perf.count("heuristic.slots", schedule.cycle_length)
        return schedule
    order = sorting_order(tree)
    if channels == 1:
        return BroadcastSchedule.from_sequence(tree, list(order))
    return allocate_sorted_tree(tree, channels, order=order, perf=perf)


def _merge_by_sequence(
    left: list[Node], right: list[Node], sequence_number: dict[int, int]
) -> list[Node]:
    """Merge two sequence-sorted lists (the paper's ``Merge``)."""
    merged: list[Node] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if sequence_number[id(left[i])] <= sequence_number[id(right[j])]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def _take_slot(
    pool: list[Node], *, start: int, channels: int, placed: set[int]
) -> tuple[list[Node], int]:
    """Fill one slot with up to ``channels`` nodes from ``pool[start:]``.

    Nodes are taken in sequence order; a node is deferred unless its
    parent was placed in an *earlier* slot (the feasibility fix — this
    also covers the parent sitting in the current slot or still deferred
    in the pool behind it). The scan stops once the slot is full, and
    the deferred nodes are written back just before the unscanned rest,
    so ``pool[new_start:]`` is the remaining pool in order without a
    copy of its tail. ``placed`` is updated with the chosen group.
    Returns (slot group, new start).

    A node is deferred only while an ancestor of it is placed in the
    same slot, so it is rescanned at most depth times in all.
    """
    group: list[Node] = []
    deferred: list[Node] = []
    cursor = start
    while cursor < len(pool) and len(group) < channels:
        node = pool[cursor]
        cursor += 1
        if node.parent is None or id(node.parent) in placed:
            group.append(node)
        else:
            deferred.append(node)
    start = cursor - len(deferred)
    pool[start:cursor] = deferred
    placed.update(id(node) for node in group)
    return group, start

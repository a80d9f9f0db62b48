"""Heuristic 2 — *Index Tree Sorting* (§4.2).

For every index node, sort its children left to right by the paper's
subtree comparator: with ``N_A``/``N_B`` the node counts of the subtrees
rooted at ``A``/``B`` and ``ΣW`` their data weights,

    A  >  B   iff   N_B · ΣW(A)  >=  N_A · ΣW(B)

(weight-dense subtrees first — a per-unit-airtime payoff rule, the same
trade-off Lemma 6 formalises). The single-channel broadcast is then the
preorder traversal of the sorted tree; sibling data nodes come out
adjacent and in descending weight, matching Lemma 3.

The paper puts sorting at ``O(N log m)`` comparisons for fanout ``m``.
Each comparison here reads memoised subtree stats, and each node's
subtree is summed once per sort: ``O(N·h)`` for a tree of height ``h``
(a logarithm of ``N`` for the balanced catalog trees), instead of the
two subtree walks per comparison a plain comparator would take. The
multi-channel allocation of a sorted tree is
:mod:`repro.heuristics.channel_allocation`.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from ..broadcast.schedule import BroadcastSchedule
from ..tree.index_tree import IndexTree
from ..tree.node import IndexNode, Node

__all__ = [
    "subtree_priority_cmp",
    "sorted_index_tree",
    "sorting_order",
    "sorting_broadcast",
]


def _subtree_stats(node: Node) -> tuple[int, float]:
    """(node count, data weight) of the subtree rooted at ``node``."""
    count = 0
    weight = 0.0
    stack = [node]
    while stack:
        current = stack.pop()
        count += 1
        if current.is_data:
            weight += current.weight  # type: ignore[attr-defined]
        else:
            stack.extend(current.children)  # type: ignore[attr-defined]
    return count, weight


def subtree_priority_cmp(left: Node, right: Node) -> int:
    """The §4.2 comparator: negative when ``left`` should precede ``right``.

    ``A > B`` (A first) iff ``N_B·ΣW(A) >= N_A·ΣW(B)``. Exact ties
    report 0, keeping Python's stable sort deterministic.
    """
    return _stats_cmp(_subtree_stats(left), _subtree_stats(right))


def _stats_cmp(left: tuple[int, float], right: tuple[int, float]) -> int:
    """:func:`subtree_priority_cmp` on precomputed subtree stats."""
    count_left, weight_left = left
    count_right, weight_right = right
    lhs = count_right * weight_left
    rhs = count_left * weight_right
    if lhs > rhs:
        return -1
    if lhs < rhs:
        return 1
    return 0


def _priority_key() -> Callable[[Node], Any]:
    """A sort key for the comparator that walks each subtree once.

    Stats are memoised per node for the key's lifetime, so one sort
    pass over a tree sums each node's subtree once instead of once per
    comparison. The sums themselves come from :func:`_subtree_stats`,
    so every comparison sees the same floats as the comparator.
    """
    stats: dict[int, tuple[int, float]] = {}

    def stats_of(node: Node) -> tuple[int, float]:
        found = stats.get(id(node))
        if found is None:
            found = stats[id(node)] = _subtree_stats(node)
        return found

    return functools.cmp_to_key(
        lambda left, right: _stats_cmp(stats_of(left), stats_of(right))
    )


def sorted_index_tree(tree: IndexTree) -> IndexTree:
    """A clone of ``tree`` with every sibling list sorted by the comparator.

    The clone is renumbered (preorder) so its index labels/orders reflect
    the new shape, exactly as the paper's Fig. 13 relabels the example.
    """
    duplicate = tree.clone()
    key = _priority_key()
    for node in duplicate.preorder():
        if isinstance(node, IndexNode):
            node.children.sort(key=key)
    duplicate.renumber()
    duplicate.validate()
    return duplicate


def sorting_order(tree: IndexTree) -> list[Node]:
    """Preorder of ``tree`` visiting children in comparator order.

    Equivalent to the preorder traversal of :func:`sorted_index_tree`
    but yields the *original* node objects, so the result plugs straight
    into schedules and metrics over ``tree``.
    """
    key = _priority_key()
    order: list[Node] = []

    def walk(node: Node) -> None:
        order.append(node)
        if isinstance(node, IndexNode):
            for child in sorted(node.children, key=key):
                walk(child)

    walk(tree.root)
    return order


def sorting_broadcast(tree: IndexTree) -> BroadcastSchedule:
    """Single-channel broadcast: preorder traversal of the sorted tree."""
    return BroadcastSchedule.from_sequence(tree, sorting_order(tree))

"""Heuristic 1 — *Index Tree Shrinking* (§4.2).

Two size-reduction moves make the optimal search affordable on large
trees:

* **Node combination** — an index node whose children are all data nodes
  collapses into a single data node weighing the sum of its children.
  Repeated (deepest first) until the tree is small enough, the optimum
  of the shrunk tree is found exactly, and each combined node in the
  optimal path is restored as its index node followed by the original
  data children in descending weight (Lemma 3's order).
* **Tree partitioning** — the tree splits into the subtrees under the
  root; each is solved (recursively, partitioning again when still too
  big) and the per-subtree broadcasts are merged. The paper leaves the
  merge rule open; we order the subtree broadcasts by the §4.2 sorting
  comparator — the same per-unit-airtime rule used for sibling
  subtrees — and concatenate (see DESIGN.md, design decision 5).

Node combination shrinks a tree of n nodes in O(n log n): candidates
wait in a heap ordered by depth, and each combination offers only its
parent as a new one.

Both moves return single-channel broadcast schedules over the *original*
tree, directly comparable with the exact solver; pipe the resulting
order through :func:`repro.heuristics.channel_allocation.
allocate_sorted_tree` for a k-channel layout.
"""

from __future__ import annotations

import functools
import heapq

from ..broadcast.schedule import BroadcastSchedule
from ..core.datatree import DataTreeConfig, solve_single_channel
from ..core.problem import AllocationProblem
from ..tree.index_tree import IndexTree
from ..tree.node import DataNode, IndexNode, Node
from .sorting import subtree_priority_cmp

__all__ = [
    "combine_and_solve",
    "partition_and_solve",
    "shrink_and_solve",
]


class _CombinedLeaf(DataNode):
    """A data node standing in for a collapsed all-data index node.

    ``expansion`` is the original-node sequence it restores to: the
    original index node followed by its children's restorations in
    descending weight (combinations nest, so a child may itself expand
    to several original nodes).
    """

    __slots__ = ("expansion",)

    def __init__(self, shadow_index: IndexNode) -> None:
        children = sorted(
            shadow_index.children,
            key=lambda child: (-child.weight, child.label),  # type: ignore[attr-defined]
        )
        total = sum(child.weight for child in children)  # type: ignore[attr-defined]
        original = shadow_index.key
        assert isinstance(original, IndexNode)
        super().__init__(f"{original.label}*", total)
        self.expansion: list[Node] = [original]
        for child in children:
            if isinstance(child, _CombinedLeaf):
                self.expansion.extend(child.expansion)
            else:
                assert isinstance(child.key, Node)
                self.expansion.append(child.key)


def _shadow_tree(tree: IndexTree, max_data_nodes: int) -> IndexTree:
    """Build the shrunk shadow of ``tree``.

    Shadow data nodes carry their original node (or expansion sequence)
    so the solved order maps straight back. Combination proceeds deepest
    first (ties to the earliest in preorder) and stops once the shadow
    has at most ``max_data_nodes`` data nodes or nothing more can
    combine.

    Candidates wait in a heap keyed by (-depth, preorder rank). A
    combination changes no other node's depth or relative preorder, so
    the keys stay valid, and only the combined node's parent can become
    a new candidate: O(n log n) in all.
    """

    def build(node: Node) -> Node:
        if isinstance(node, DataNode):
            shadow = DataNode(node.label, node.weight)
            shadow.key = node
            return shadow
        assert isinstance(node, IndexNode)
        shadow = IndexNode(node.label)
        shadow.key = node
        for child in node.children:
            shadow.add_child(build(child))
        return shadow

    root = build(tree.root)
    shadow = IndexTree(root, renumber=False, validate=False)

    # Preorder walk: rank and depth of every index node, how many of its
    # children are still index nodes, and the running data-node count.
    rank: dict[int, int] = {}
    depth: dict[int, int] = {}
    index_children: dict[int, int] = {}
    heap: list[tuple[int, int, IndexNode]] = []
    data_count = 0
    stack: list[tuple[Node, int]] = [(root, 1)]
    while stack:
        node, level = stack.pop()
        if not isinstance(node, IndexNode):
            data_count += 1
            continue
        rank[id(node)] = len(rank)
        depth[id(node)] = level
        pending = sum(1 for child in node.children if child.is_index)
        index_children[id(node)] = pending
        if pending == 0 and node.parent is not None:
            heap.append((-level, rank[id(node)], node))
        stack.extend((child, level + 1) for child in reversed(node.children))
    heapq.heapify(heap)

    while data_count > max_data_nodes and heap:
        _, _, target = heapq.heappop(heap)
        combined = _CombinedLeaf(target)
        parent = target.parent
        assert parent is not None
        parent.replace_child(target, combined)
        data_count -= len(target.children) - 1
        index_children[id(parent)] -= 1
        if index_children[id(parent)] == 0 and parent.parent is not None:
            heapq.heappush(heap, (-depth[id(parent)], rank[id(parent)], parent))
    shadow.renumber()
    shadow.validate()
    return shadow


def _expand_order(shadow_order: list[Node]) -> list[Node]:
    """Map a shadow broadcast order back to original tree nodes."""
    order: list[Node] = []
    for node in shadow_order:
        if isinstance(node, _CombinedLeaf):
            order.extend(node.expansion)
        else:
            original = node.key
            assert isinstance(original, Node)
            order.append(original)
    return order


def combine_and_solve(
    tree: IndexTree,
    *,
    max_data_nodes: int = 12,
    datatree_config: DataTreeConfig | None = None,
) -> BroadcastSchedule:
    """Node combination: shrink, solve exactly, restore (single channel).

    ``max_data_nodes`` bounds the exact search; 12 keeps the data-tree DP
    in the low milliseconds. When the tree cannot shrink below the bound
    (no all-data index nodes remain) the exact search runs on whatever
    was achieved.
    """
    shadow = _shadow_tree(tree, max_data_nodes)
    problem = AllocationProblem(shadow, channels=1)
    result = solve_single_channel(problem, config=datatree_config)
    shadow_order = [problem.node_of(i) for i in result.order]
    return BroadcastSchedule.from_sequence(tree, _expand_order(shadow_order))


def partition_and_solve(
    tree: IndexTree,
    *,
    max_data_nodes: int = 12,
    datatree_config: DataTreeConfig | None = None,
) -> BroadcastSchedule:
    """Tree partitioning: per-subtree optima merged by the §4.2 comparator."""

    def order_of(node: Node) -> list[Node]:
        if isinstance(node, DataNode):
            return [node]
        assert isinstance(node, IndexNode)
        subtree = IndexTree(_detached_view(node), renumber=False, validate=False)
        if len(subtree.data_nodes()) <= max_data_nodes:
            problem = AllocationProblem(subtree, channels=1)
            result = solve_single_channel(problem, config=datatree_config)
            shadow_order = [problem.node_of(i) for i in result.order]
            return [shadow.key for shadow in shadow_order]  # type: ignore[misc]
        parts = sorted(
            node.children, key=functools.cmp_to_key(subtree_priority_cmp)
        )
        merged: list[Node] = [node]
        for part in parts:
            merged.extend(order_of(part))
        return merged

    return BroadcastSchedule.from_sequence(tree, order_of(tree.root))


def _detached_view(node: IndexNode) -> IndexNode:
    """A shadow copy of the subtree at ``node`` (originals in ``key``)."""

    def build(source: Node) -> Node:
        if isinstance(source, DataNode):
            shadow = DataNode(source.label, source.weight)
        else:
            assert isinstance(source, IndexNode)
            shadow = IndexNode(source.label)
            for child in source.children:
                shadow.add_child(build(child))
        shadow.key = source
        return shadow

    result = build(node)
    assert isinstance(result, IndexNode)
    return result


def shrink_and_solve(
    tree: IndexTree,
    strategy: str = "combine",
    *,
    max_data_nodes: int = 12,
) -> BroadcastSchedule:
    """Facade over both shrinking strategies.

    ``strategy`` is ``"combine"`` or ``"partition"``.
    """
    if strategy == "combine":
        return combine_and_solve(tree, max_data_nodes=max_data_nodes)
    if strategy == "partition":
        return partition_and_solve(tree, max_data_nodes=max_data_nodes)
    raise ValueError(f"unknown shrinking strategy {strategy!r}")

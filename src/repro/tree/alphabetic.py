"""Alphabetic (order-preserving) index-tree construction.

The paper adopts the *Alphabetic Huffman tree* of Hu and Tucker [HT71] —
extended to k-nary search trees in [SV96] — as its index structure (§1):
a tree whose leaves stay in search-key order (so key lookup works, unlike a
plain Huffman tree) while popular leaves sit closer to the root, minimising
the expected number of index probes (average tuning time).

Three constructions are provided:

* :func:`hu_tucker_levels` / :func:`hu_tucker_tree` — the classic
  Hu–Tucker algorithm for binary alphabetic trees: a combination phase
  over *compatible pairs* computes optimal leaf levels; a
  reconstruction phase rebuilds an order-preserving tree with exactly
  those levels. (This straightforward realisation scans pairs each
  merge, so it is cubic; fine up to ~100 leaves.)
* :func:`garsia_wachs_levels` / :func:`garsia_wachs_tree` — the
  Garsia–Wachs algorithm, provably cost-equivalent and far faster (the
  list-based realisation here is quadratic); the builder of choice for
  large catalogs.
* :func:`optimal_alphabetic_tree` — an exact interval dynamic program for
  any fanout k >= 2 (the [SV96] k-nary extension; a tree node then fits a
  wireless packet holding k pointers). O(n^3 · k); intended for the
  catalog sizes of the paper's experiments.

All return trees whose expected leaf depth is minimal among alphabetic
trees of the given fanout, which the test suite verifies by brute force
on small inputs and by cross-validating the constructions against each
other on random ones.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .index_tree import IndexTree
from .node import DataNode, IndexNode, Node

__all__ = [
    "hu_tucker_levels",
    "hu_tucker_tree",
    "garsia_wachs_levels",
    "garsia_wachs_tree",
    "optimal_alphabetic_tree",
    "weight_balanced_tree",
    "build_index",
    "alphabetic_cost",
]


def alphabetic_cost(tree: IndexTree) -> float:
    """Weighted external path length: ``sum W(leaf) * edge_depth(leaf)``.

    This is the quantity an alphabetic Huffman tree minimises — it is
    proportional to the average tuning time of the index (§1).
    """
    return sum(
        leaf.weight * (leaf.depth() - 1) for leaf in tree.data_nodes()
    )


def hu_tucker_levels(weights: Sequence[float]) -> list[int]:
    """Optimal binary alphabetic-tree leaf levels for ``weights``.

    Implements the combination phase of Hu–Tucker [HT71]: repeatedly merge
    the *minimum compatible pair* — two work-list items with no leaf
    strictly between them, minimising combined weight with ties broken by
    leftmost position — until one item remains. The number of merges each
    original leaf participates in is its level (edge depth) in an optimal
    alphabetic tree.
    """
    count = len(weights)
    if count == 0:
        raise ValueError("weights must be non-empty")
    if count == 1:
        return [0]

    # Work list entries: [weight, is_leaf, leaf_indices]
    work: list[list] = [[float(w), True, [i]] for i, w in enumerate(weights)]
    levels = [0] * count

    while len(work) > 1:
        best: tuple[float, int, int] | None = None
        for left in range(len(work) - 1):
            for right in range(left + 1, len(work)):
                # Compatible: no *leaf* strictly between positions left, right.
                if right > left + 1 and any(
                    work[mid][1] for mid in range(left + 1, right)
                ):
                    # A leaf blocks this pair and everything beyond it.
                    break
                combined = work[left][0] + work[right][0]
                candidate = (combined, left, right)
                if best is None or candidate < best:
                    best = candidate
        assert best is not None
        _, left, right = best
        merged_leaves = work[left][2] + work[right][2]
        for leaf in merged_leaves:
            levels[leaf] += 1
        work[left] = [work[left][0] + work[right][0], False, merged_leaves]
        del work[right]
    return levels


def _tree_from_levels(
    labels: Sequence[str],
    weights: Sequence[float],
    levels: Sequence[int],
    keys: Sequence[object] | None,
) -> IndexTree:
    """Reconstruction phase: build an alphabetic tree with given leaf levels.

    Scans leaves left to right with a stack, merging the top two entries
    whenever they sit at the same level. Valid Hu–Tucker level sequences
    always reduce to a single level-0 root.
    """
    stack: list[tuple[int, Node]] = []
    for position, level in enumerate(levels):
        key = keys[position] if keys is not None else None
        node: Node = DataNode(labels[position], weights[position], key=key)
        stack.append((level, node))
        while len(stack) >= 2 and stack[-1][0] == stack[-2][0]:
            level_top, right = stack.pop()
            _, left = stack.pop()
            stack.append((level_top - 1, IndexNode("", [left, right])))
    if len(stack) != 1 or stack[0][0] != 0:
        raise ValueError(
            f"invalid alphabetic level sequence: {len(levels)} levels "
            f"reduce to {len(stack)} subtrees, not one root"
        )
    root = stack[0][1]
    if isinstance(root, DataNode):
        root = IndexNode("", [root])
    return IndexTree(root)


def hu_tucker_tree(
    labels: Sequence[str],
    weights: Sequence[float],
    keys: Sequence[object] | None = None,
) -> IndexTree:
    """Optimal binary alphabetic (Hu–Tucker) index tree.

    Leaves appear left to right in the order given, so an in-order walk
    preserves key order and the tree functions as a binary search tree —
    the property plain Huffman trees lack (§1).
    """
    if len(labels) != len(weights):
        raise ValueError("labels and weights must have equal length")
    levels = hu_tucker_levels(weights)
    return _tree_from_levels(labels, weights, levels, keys)


def optimal_alphabetic_tree(
    labels: Sequence[str],
    weights: Sequence[float],
    fanout: int = 2,
    keys: Sequence[object] | None = None,
) -> IndexTree:
    """Exact optimal alphabetic tree with node fanout at most ``fanout``.

    Interval dynamic program: ``g(i, j)`` is the minimal weighted external
    path length of an alphabetic tree over leaves ``i..j``; its root splits
    the interval into between 2 and ``fanout`` contiguous parts, each part
    either a single leaf (depth 1 below the root) or a recursively optimal
    subtree. Every level of nesting adds ``W(i, j)`` once, which is how the
    recurrence charges depth.

    This realises the [SV96] k-nary extension exactly (at O(n^3·k) cost),
    so a tree node can be sized to fit a wireless packet of any capacity.
    """
    if len(labels) != len(weights):
        raise ValueError("labels and weights must have equal length")
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    count = len(labels)
    if count == 0:
        raise ValueError("weights must be non-empty")
    if count == 1:
        root = IndexNode(
            "", [DataNode(labels[0], weights[0], key=keys[0] if keys else None)]
        )
        return IndexTree(root)

    prefix = [0.0]
    for weight in weights:
        prefix.append(prefix[-1] + float(weight))

    def interval_weight(i: int, j: int) -> float:
        return prefix[j + 1] - prefix[i]

    @lru_cache(maxsize=None)
    def subtree_cost(i: int, j: int) -> float:
        """Cost of the best alphabetic tree over leaves i..j (i < j)."""
        return interval_weight(i, j) + split_cost(i, j, fanout)

    def part_cost(i: int, j: int) -> float:
        """Cost of leaves i..j used as one child slot of some root."""
        return 0.0 if i == j else subtree_cost(i, j)

    @lru_cache(maxsize=None)
    def split_cost(i: int, j: int, parts: int) -> float:
        """Min total part cost splitting i..j into 2..``parts`` pieces."""
        if i == j:
            return 0.0
        if parts == 1:
            return part_cost(i, j)
        best = float("inf")
        for cut in range(i, j):
            candidate = part_cost(i, cut) + split_cost(cut + 1, j, parts - 1)
            if candidate < best:
                best = candidate
        if parts > 2:
            # Fewer pieces may be cheaper (split_cost(parts-1) already
            # covers >=2 pieces when parts-1 >= 2).
            best = min(best, split_cost(i, j, parts - 1))
        return best

    def make_leaf(position: int) -> DataNode:
        key = keys[position] if keys is not None else None
        return DataNode(labels[position], weights[position], key=key)

    def build_parts(i: int, j: int, parts: int) -> list[Node]:
        """Recover the optimal partition of i..j into at most ``parts``."""
        if parts == 1 or i == j:
            return [build_subtree(i, j)]
        target = split_cost(i, j, parts)
        if parts > 2 and abs(split_cost(i, j, parts - 1) - target) < 1e-9:
            return build_parts(i, j, parts - 1)
        for cut in range(i, j):
            left = part_cost(i, cut)
            right = split_cost(cut + 1, j, parts - 1)
            if abs(left + right - target) < 1e-9:
                return [build_subtree(i, cut)] + build_parts(
                    cut + 1, j, parts - 1
                )
        raise AssertionError("dynamic program reconstruction failed")

    def build_subtree(i: int, j: int) -> Node:
        if i == j:
            return make_leaf(i)
        return IndexNode("", build_parts(i, j, fanout))

    root = build_subtree(0, count - 1)
    if isinstance(root, DataNode):  # pragma: no cover - count == 1 handled above
        root = IndexNode("", [root])
    return IndexTree(root)


def garsia_wachs_levels(weights: Sequence[float]) -> list[int]:
    """Optimal binary alphabetic-tree leaf levels via Garsia–Wachs.

    The Garsia–Wachs algorithm computes the same optimal levels as
    Hu–Tucker with a simpler combination phase: repeatedly find the
    leftmost position where the left neighbour is no heavier than the
    right neighbour (``w[i-1] <= w[i+1]`` with infinite sentinels),
    merge the pair at that position, and re-insert the merged item just
    after the nearest heavier item to its left. The test suite verifies
    cost-equality with :func:`hu_tucker_levels` and the interval DP.

    This simple list-based realisation is O(n^2); the classic paper
    gets O(n log n) with balanced trees, unnecessary at broadcast
    catalog sizes.

    Weights are summed and compared exactly (:func:`_exact_weights`):
    float sums round differently in different orders, and on tie-heavy
    weights the near-ties that leaves can yield a level sequence with no
    alphabetic realisation.
    """
    count = len(weights)
    if count == 0:
        raise ValueError("weights must be non-empty")
    if count == 1:
        return [0]

    infinity = float("inf")
    # Work items: [weight, leaf_indices]; sentinels carry no leaves.
    work: list[list] = (
        [[infinity, []]]
        + [[w, [i]] for i, w in enumerate(_exact_weights(weights))]
        + [[infinity, []]]
    )
    levels = [0] * count

    while len(work) > 3:
        # Leftmost i with work[i-1].weight <= work[i+1].weight, scanning
        # the real items (positions 1..len-2).
        position = next(
            i
            for i in range(1, len(work) - 1)
            if work[i - 1][0] <= work[i + 1][0]
        )
        merged_weight = work[position - 1][0] + work[position][0]
        merged_leaves = work[position - 1][1] + work[position][1]
        for leaf in merged_leaves:
            levels[leaf] += 1
        del work[position - 1:position + 1]
        # Re-insert immediately to the right of the nearest left item of
        # weight >= the merged weight (the left sentinel guarantees one).
        # The tie handling matters: inserting past equal-weight items
        # (strict >) can produce level sequences with no alphabetic
        # realisation — verified empirically in the test suite.
        insert_after = max(
            j for j in range(position - 1) if work[j][0] >= merged_weight
        )
        work.insert(insert_after + 1, [merged_weight, merged_leaves])
    return levels


def _exact_weights(weights: Sequence[float]) -> list[int]:
    """``weights`` as integers on one common scale, so sums never round.

    Every float is an integer over a power of two; scaling each by the
    largest such denominator keeps every sum and comparison exact.
    """
    ratios = [float(w).as_integer_ratio() for w in weights]
    scale = max(denominator for _, denominator in ratios)
    return [
        numerator * (scale // denominator) for numerator, denominator in ratios
    ]


def garsia_wachs_tree(
    labels: Sequence[str],
    weights: Sequence[float],
    keys: Sequence[object] | None = None,
) -> IndexTree:
    """Optimal binary alphabetic tree via Garsia–Wachs levels.

    Produces a tree with the same (optimal) cost as
    :func:`hu_tucker_tree`; the shapes may differ when several optimal
    trees exist.
    """
    if len(labels) != len(weights):
        raise ValueError("labels and weights must have equal length")
    levels = garsia_wachs_levels(weights)
    return _tree_from_levels(labels, weights, levels, keys)


def weight_balanced_tree(
    labels: Sequence[str],
    weights: Sequence[float],
    fanout: int = 2,
    keys: Sequence[object] | None = None,
) -> IndexTree:
    """Near-optimal k-ary alphabetic tree by recursive weight balancing.

    The exact k-ary DP (:func:`optimal_alphabetic_tree`) is cubic; for
    catalogs in the hundreds-to-thousands this greedy does the classic
    thing instead: split the leaf interval into ``fanout`` contiguous
    parts of (near) equal total weight and recurse. Weight balancing is
    the standard logarithmic-cost approximation for alphabetic trees;
    the test suite bounds its gap against the exact DP empirically.
    Runs in O(n log n)-ish time.
    """
    if len(labels) != len(weights):
        raise ValueError("labels and weights must have equal length")
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    count = len(labels)
    if count == 0:
        raise ValueError("weights must be non-empty")

    prefix = [0.0]
    for weight in weights:
        prefix.append(prefix[-1] + float(weight))

    def make_leaf(position: int) -> DataNode:
        key = keys[position] if keys is not None else None
        return DataNode(labels[position], weights[position], key=key)

    def build(i: int, j: int) -> Node:
        size = j - i + 1
        if size == 1:
            return make_leaf(i)
        if size <= fanout:
            return IndexNode("", [make_leaf(p) for p in range(i, j + 1)])
        children: list[Node] = []
        start = i
        for part in range(fanout):
            remaining_parts = fanout - part
            if j - start + 1 <= remaining_parts:
                # Just enough leaves left: one per remaining slot.
                children.extend(make_leaf(p) for p in range(start, j + 1))
                start = j + 1
                break
            if part == fanout - 1:
                end = j
            else:
                # Greedy boundary: closest prefix point to the ideal
                # equal-weight cut of what is *left* (re-balancing after
                # earlier cuts), keeping >= 1 leaf per side and enough
                # leaves for the remaining parts.
                remaining_weight = prefix[j + 1] - prefix[start]
                ideal = prefix[start] + remaining_weight / remaining_parts
                lo = start
                hi = j - (remaining_parts - 1)
                end = lo
                best_gap = float("inf")
                for candidate in range(lo, hi + 1):
                    gap = abs(prefix[candidate + 1] - ideal)
                    if gap < best_gap:
                        best_gap = gap
                        end = candidate
            children.append(build(start, end))
            start = end + 1
            if start > j:
                break
        return IndexNode("", children)

    root = build(0, count - 1)
    if isinstance(root, DataNode):
        root = IndexNode("", [root])
    return IndexTree(root)


def build_index(
    labels: Sequence[str],
    weights: Sequence[float],
    fanout: int = 2,
    keys: Sequence[object] | None = None,
    exact_threshold: int = 120,
) -> IndexTree:
    """Pick the right alphabetic construction for the catalog size.

    * fanout 2 → Garsia–Wachs (exact, fast at any size);
    * fanout > 2 and ``len(labels) <= exact_threshold`` → the exact
      interval DP;
    * otherwise → recursive weight balancing (near-optimal, scalable).
    """
    if fanout == 2:
        return garsia_wachs_tree(labels, weights, keys=keys)
    if len(labels) <= exact_threshold:
        return optimal_alphabetic_tree(labels, weights, fanout=fanout, keys=keys)
    return weight_balanced_tree(labels, weights, fanout=fanout, keys=keys)

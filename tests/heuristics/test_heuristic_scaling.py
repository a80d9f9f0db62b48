"""The §4.2 heuristics at their stated time bounds return the same plans.

``_shadow_tree`` takes combination candidates from a heap,
``_take_slot`` scans the pool through a cursor, and ``sorting_order``
sums each subtree once per sort. Each was a quadratic loop before; the
frozen copies below are those loops, kept as oracles. The property
tests require the node sequences to match the oracles exactly on random
trees whose equal weights force ties, and the golden content ids pin
whole plans of the sizes the heuristics exist for.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.approx.bench import zipf_catalog
from repro.broadcast.assembly import assemble_schedule
from repro.heuristics import shrinking
from repro.heuristics.channel_allocation import allocate_sorted_tree
from repro.heuristics.shrinking import combine_and_solve
from repro.heuristics.sorting import sorted_index_tree, sorting_order
from repro.planners import plan, plan_catalog
from repro.sched.delta import content_id, plan_to_doc
from repro.tree.alphabetic import build_index
from repro.tree.index_tree import IndexTree
from repro.tree.node import DataNode, IndexNode, Node
from repro.workloads.weights import zipf_weights

# ---------------------------------------------------------------------------
# Oracles: the loops as they were before the heuristics met their bounds
# ---------------------------------------------------------------------------


def oracle_shadow_tree(tree: IndexTree, max_data_nodes: int) -> IndexTree:
    """Rescan the whole shadow for candidates after every combination."""

    def build(node: Node) -> Node:
        if isinstance(node, DataNode):
            shadow = DataNode(node.label, node.weight)
            shadow.key = node
            return shadow
        shadow = IndexNode(node.label)
        shadow.key = node
        for child in node.children:
            shadow.add_child(build(child))
        return shadow

    shadow = IndexTree(build(tree.root), renumber=False, validate=False)
    while len(shadow.data_nodes()) > max_data_nodes:
        candidates = [
            node
            for node in shadow.index_nodes()
            if node.parent is not None
            and all(child.is_data for child in node.children)
        ]
        if not candidates:
            break
        target = max(candidates, key=lambda node: node.depth())
        target.parent.replace_child(target, shrinking._CombinedLeaf(target))
    shadow.renumber()
    shadow.validate()
    return shadow


def oracle_take_slot(pool, channels, placed):
    """Scan the whole pool for every slot and copy what is deferred."""
    group = []
    deferred = []
    for node in pool:
        parent_ready = node.parent is None or id(node.parent) in placed
        if len(group) < channels and parent_ready:
            group.append(node)
        else:
            deferred.append(node)
    placed.update(id(node) for node in group)
    return group, deferred


def oracle_allocate(tree: IndexTree, channels: int, order: list[Node]):
    """``1_To_k_BroadcastChannel`` over ``oracle_take_slot``."""
    sequence_number = {id(node): position for position, node in enumerate(order)}
    depth = tree.depth()
    level_lists = [[] for _ in range(depth + 1)]
    for node in order:
        level_lists[node.depth()].append(node)
    groups = []
    carry = []
    placed = set()
    for level in range(1, depth + 1):
        pool = sorted(carry + level_lists[level], key=lambda n: sequence_number[id(n)])
        group, carry = oracle_take_slot(pool, channels, placed)
        groups.append(group)
    while carry:
        group, carry = oracle_take_slot(carry, channels, placed)
        groups.append(group)
    return assemble_schedule(tree, groups, channels)


def oracle_subtree_stats(node: Node) -> tuple[int, float]:
    count = 0
    weight = 0.0
    stack = [node]
    while stack:
        current = stack.pop()
        count += 1
        if current.is_data:
            weight += current.weight
        else:
            stack.extend(current.children)
    return count, weight


def oracle_cmp(left: Node, right: Node) -> int:
    """The §4.2 comparator, rewalking both subtrees on every comparison."""
    count_left, weight_left = oracle_subtree_stats(left)
    count_right, weight_right = oracle_subtree_stats(right)
    lhs = count_right * weight_left
    rhs = count_left * weight_right
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


def oracle_sorting_order(tree: IndexTree) -> list[Node]:
    key = functools.cmp_to_key(oracle_cmp)
    order = []

    def walk(node):
        order.append(node)
        if isinstance(node, IndexNode):
            for child in sorted(node.children, key=key):
                walk(child)

    walk(tree.root)
    return order


# ---------------------------------------------------------------------------
# Random trees with ties
# ---------------------------------------------------------------------------

# Few distinct weights, most of them non-dyadic, so sibling subtrees tie
# on the comparator and float sums depend on their summation order.
weights = st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.0])


def tree_spec():
    return st.recursive(
        weights,
        lambda children: st.lists(children, min_size=1, max_size=4),
        max_leaves=40,
    )


def build_tree(spec) -> IndexTree:
    counter = [0]

    def build(node_spec):
        if isinstance(node_spec, float):
            counter[0] += 1
            return DataNode(f"D{counter[0]}", node_spec)
        return IndexNode("", [build(child) for child in node_spec])

    root = build(spec)
    if isinstance(root, DataNode):
        root = IndexNode("", [root])
    return IndexTree(root)


def grid(schedule):
    return [[node for node in row] for row in schedule.grid()]


PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY
@given(spec=tree_spec())
# Summed child by child, the left subtree weighs 0.6000000000000001 and
# ties the right one's 6 x 0.1; the comparator's stack order sums 0.6.
@example(spec=[[[0.1, 0.1, 0.1], 0.3], 0.1])
def test_sorting_order_matches_the_per_comparison_oracle(spec):
    tree = build_tree(spec)
    expected = oracle_sorting_order(tree)
    assert sorting_order(tree) == expected
    # The sorted clone shares the memoised key; data labels are unique.
    assert [node.label for node in sorted_index_tree(tree).data_nodes()] == [
        node.label for node in expected if node.is_data
    ]


@PROPERTY
@given(spec=tree_spec(), channels=st.integers(min_value=1, max_value=4))
def test_allocation_matches_the_full_scan_oracle(spec, channels):
    tree = build_tree(spec)
    order = oracle_sorting_order(tree)
    got = allocate_sorted_tree(tree, channels, order=order)
    assert grid(got) == grid(oracle_allocate(tree, channels, order))


@PROPERTY
@given(spec=tree_spec(), bound=st.integers(min_value=1, max_value=12))
def test_combination_matches_the_rescanning_oracle(spec, bound):
    tree = build_tree(spec)
    got = combine_and_solve(tree, max_data_nodes=bound)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shrinking, "_shadow_tree", oracle_shadow_tree)
        expected = combine_and_solve(tree, max_data_nodes=bound)
    assert grid(got) == grid(expected)


# ---------------------------------------------------------------------------
# Golden plans at scale
# ---------------------------------------------------------------------------


def churn_plan(theta: float):
    """perfbench's ``air-churn`` catalog: 1,000 Zipf keys, meta."""
    labels = [f"K{index:03d}" for index in range(1000)]
    weights = zipf_weights(np.random.default_rng(2000), 1000, theta=theta)
    return plan_catalog(labels, weights, 3, method="meta", fanout=3)


@pytest.mark.parametrize(
    ("theta", "method", "expected"),
    [
        (
            0.95,
            "meta:shrink-combine",
            "629ddd7045ea7eb9d83e4d33dbc91e6cd8026456fc725c934e521d043b4d3796",
        ),
        (
            0.35,
            "meta:sorting",
            "ae6403c3d52b71d6e58b704b6cc407a9294ac2d629128c3a212aa47fd7f658b4",
        ),
    ],
)
def test_air_churn_plans_are_unchanged(theta, method, expected):
    result = churn_plan(theta)
    assert result.method == method
    assert content_id(plan_to_doc(result)) == expected


def test_approx_frontier_large_sorting_plan_is_unchanged():
    """The 10,000-item plan behind ``sorting_plan_seconds_large``.

    The catalog is the approx-frontier suite's (θ 0.95, seed 2000, four
    channels, fanout 3).
    """
    labels, weights = zipf_catalog(10_000, 0.95, 2000)
    result = plan(build_index(labels, weights, fanout=3), 4, method="sorting")
    assert content_id(plan_to_doc(result)) == (
        "98d2f73ed8b3c5749470f89f215e7c989bc98ad207ea9aa4b8da48f11adc3d55"
    )

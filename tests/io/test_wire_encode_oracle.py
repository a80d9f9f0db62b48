"""``encode_program`` against a frozen copy of the per-child encoder.

``encode_program`` finds every subtree's largest routing key in one
post-order pass. The encoder below is the one it replaced, kept as it
was: it walks each child's whole subtree for every index bucket. Both
must produce the same frames, byte for byte, on random trees, on catalog
plans, on ``ptas`` plans, and on hand-built trees whose root's subtrees
interleave their key ranges, so the largest key of a subtree is not its
last leaf.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broadcast.pointers import compile_program
from repro.heuristics.channel_allocation import sorting_schedule
from repro.io.wire import encode_bucket, encode_program
from repro.planners import plan_catalog
from repro.tree.alphabetic import build_index
from repro.tree.builders import random_tree
from repro.tree.index_tree import IndexTree
from repro.tree.node import DataNode, IndexNode

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def frozen_subtree_max_key(node) -> str:
    best = ""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, DataNode):
            key = str(current.key) if current.key is not None else current.label
            best = max(best, key)
        else:
            assert isinstance(current, IndexNode)
            stack.extend(current.children)
    return best


def frozen_encode_bucket(bucket, bucket_size: int = 96) -> bytes:
    next_offset = (
        bucket.next_cycle_pointer.offset if bucket.next_cycle_pointer else 0
    )
    if bucket.node is None:
        body = b""
        kind = 0
        label = b""
    else:
        label = bucket.node.label.encode()
        if isinstance(bucket.node, IndexNode):
            kind = 1
            parts = [struct.pack(">B", len(bucket.child_pointers))]
            for pointer, child in zip(
                bucket.child_pointers, bucket.node.children
            ):
                key = frozen_subtree_max_key(child).encode()
                parts.append(
                    struct.pack(">BHB", pointer.channel, pointer.offset, len(key))
                    + key
                )
            body = b"".join(parts)
        else:
            kind = 2
            payload = f"item:{bucket.node.label}".encode()
            body = struct.pack(">H", len(payload)) + payload
    content = struct.pack(">BHB", kind, next_offset, len(label)) + label + body
    padded = content + b"\x00" * (bucket_size - 5 - len(content))
    return struct.pack(">BI", 0xB1, zlib.crc32(padded)) + padded


def frozen_encode_program(program, bucket_size: int = 96):
    return [
        [frozen_encode_bucket(bucket, bucket_size) for bucket in row]
        for row in program.buckets
    ]


def assert_same_frames(program, bucket_size: int = 96) -> None:
    frames = encode_program(program, bucket_size)
    assert frames == frozen_encode_program(program, bucket_size)
    # The one-bucket entry point agrees too.
    for row, encoded in zip(program.buckets, frames):
        for bucket, frame in zip(row, encoded):
            assert encode_bucket(bucket, bucket_size) == frame


def heavy_light_catalog(seed: int, items: int, heavy: int):
    """Ultra-heavy items in a light catalog, the last key among them."""
    rng = np.random.default_rng(seed)
    labels = [f"k{i:03d}" for i in range(items)]
    weights = [float(w) for w in rng.uniform(1.0, 2.0, items)]
    for position in [*rng.choice(items - 1, heavy - 1, replace=False), items - 1]:
        weights[position] = 1000.0 * rng.uniform(1.0, 2.0)
    return labels, weights


def two_group_program(labels, weights):
    """One alphabetic subtree for the heavy items, one for the rest.

    The heavy subtree comes first under the root, so the root's
    largest key sits in its first child, not its last: the tree ptas
    built when it planned per weight class.
    """
    roots = []
    for heavy in (True, False):
        group = [i for i, w in enumerate(weights) if (w >= 1000.0) == heavy]
        subtree = build_index(
            [labels[i] for i in group], [weights[i] for i in group], fanout=3
        )
        for node in subtree.index_nodes():
            node.label = ""  # numbered afresh under the shared root
        roots.append(subtree.root)
    tree = IndexTree(IndexNode("", roots))
    return compile_program(sorting_schedule(tree, 4))


def last_leaf_key(node) -> str:
    while isinstance(node, IndexNode):
        node = node.children[-1]
    return str(node.key) if node.key is not None else node.label


class TestFrozenEncoder:
    @settings(max_examples=40, **COMMON)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        leaves=st.integers(min_value=1, max_value=60),
        fanout=st.integers(min_value=2, max_value=4),
        channels=st.integers(min_value=1, max_value=3),
    )
    def test_random_trees(self, seed, leaves, fanout, channels):
        tree = random_tree(np.random.default_rng(seed), leaves, fanout)
        program = compile_program(sorting_schedule(tree, channels))
        assert_same_frames(program)

    @pytest.mark.parametrize("heavy", [2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_multi_group_ptas_plans(self, seed, heavy):
        labels, weights = heavy_light_catalog(seed, 48, heavy)
        program = two_group_program(labels, weights)
        assert any(
            frozen_subtree_max_key(node) != last_leaf_key(node)
            for node in program.schedule.tree.nodes()
            if isinstance(node, IndexNode)
        )
        assert_same_frames(program)
        # The one tree ptas plans for the same catalog.
        assert_same_frames(
            plan_catalog(labels, weights, 4, method="ptas").compile()
        )

    def test_keyed_catalog_plans(self):
        labels = [f"K{i:04d}" for i in range(300)]
        weights = np.random.default_rng(5).zipf(1.5, 300).astype(float)
        for method in ("sorting", "meta"):
            plan = plan_catalog(labels, list(weights), 3, method=method)
            assert_same_frames(plan.compile(), bucket_size=128)

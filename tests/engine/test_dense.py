"""The dense compilation: grids, path tables, and wiring validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.broadcast.bucket import Pointer
from repro.broadcast.pointers import compile_program
from repro.core.optimal import solve
from repro.engine.dense import (
    KIND_DATA,
    KIND_EMPTY,
    KIND_INDEX,
    compile_dense,
)
from repro.exceptions import ScheduleError
from repro.tree.builders import paper_example_tree, random_tree
from repro.tree.node import DataNode, IndexNode


def _program(channels: int = 2):
    tree = paper_example_tree()
    return compile_program(solve(tree, channels=channels).schedule)


class TestGridRoundTrip:
    def test_grids_mirror_the_bucket_grid(self):
        program = _program()
        dense = compile_dense(program)
        assert dense.channels == program.channels
        assert dense.cycle_length == program.cycle_length
        for row in program.buckets:
            for bucket in row:
                c, s = bucket.channel - 1, bucket.slot - 1
                if bucket.node is None:
                    assert dense.kind[c, s] == KIND_EMPTY
                    assert dense.data_id[c, s] == -1
                elif isinstance(bucket.node, IndexNode):
                    assert dense.kind[c, s] == KIND_INDEX
                    start = dense.child_start[c, s]
                    count = dense.child_count[c, s]
                    assert count == len(bucket.child_pointers)
                    for j, pointer in enumerate(bucket.child_pointers):
                        assert dense.child_channel[start + j] == pointer.channel
                        assert dense.child_slot[start + j] == pointer.slot
                else:
                    assert dense.kind[c, s] == KIND_DATA
                    label = dense.data_labels[dense.data_id[c, s]]
                    assert label == bucket.node.label

    def test_root_position_matches_program(self):
        program = _program()
        dense = compile_dense(program)
        root = program.root_bucket()
        assert (dense.root_channel, dense.root_slot) == (
            root.channel,
            root.slot,
        )

    def test_path_tables_descend_from_root_to_each_target(self):
        program = _program(channels=3)
        dense = compile_dense(program)
        for d, leaf in enumerate(program.schedule.tree.data_nodes()):
            start = int(dense.path_start[d])
            length = int(dense.path_len[d])
            assert length >= 2  # root hop + the data hop at minimum
            hops = list(
                zip(
                    dense.path_channel[start:start + length],
                    dense.path_slot[start:start + length],
                )
            )
            assert hops[0] == (dense.root_channel, dense.root_slot)
            final_channel, final_slot = hops[-1]
            bucket = program.bucket_at(int(final_channel), int(final_slot))
            assert bucket.node is leaf
            assert dense.target_data_wait[d] == final_slot

    def test_random_trees_round_trip(self):
        for seed in range(5):
            tree = random_tree(np.random.default_rng(seed), 9, max_fanout=3)
            program = compile_program(solve(tree, channels=2).schedule)
            dense = compile_dense(program)
            labels = [n.label for n in program.schedule.tree.data_nodes()]
            assert list(dense.data_labels) == labels
            assert int((dense.kind == KIND_DATA).sum()) == len(labels)


class TestDataIndex:
    def test_labels_resolve_and_cache(self):
        dense = compile_dense(_program())
        for d, label in enumerate(dense.data_labels):
            assert dense.data_index(label) == d
        with pytest.raises(KeyError):
            dense.data_index("no-such-item")


class TestWiringValidation:
    def test_pointer_to_empty_bucket_raises(self):
        program = _program(channels=2)
        root = program.root_bucket()
        empty = next(
            bucket
            for row in program.buckets
            for bucket in row
            if bucket.node is None
        )
        root.child_pointers[0] = Pointer(
            channel=empty.channel, slot=empty.slot, offset=0, label="broken"
        )
        with pytest.raises(ScheduleError, match="empty bucket"):
            compile_dense(program)

    def test_unreachable_data_node_raises(self):
        program = _program(channels=2)
        root = program.root_bucket()
        # Cutting a subtree off the root strands its data nodes.
        root.child_pointers = root.child_pointers[:1]
        with pytest.raises(ScheduleError, match="unreachable"):
            compile_dense(program)

    def test_foreign_data_node_raises(self):
        program = _program(channels=2)
        data_bucket = next(
            bucket
            for row in program.buckets
            for bucket in row
            if isinstance(bucket.node, DataNode)
        )
        data_bucket.node = DataNode("stowaway", 1.0)
        with pytest.raises(ScheduleError, match="catalog"):
            compile_dense(program)

    def test_doubly_reached_bucket_raises(self):
        program = _program(channels=2)
        parent = next(
            bucket
            for row in program.buckets
            for bucket in row
            if len(bucket.child_pointers) >= 2
            and all(
                isinstance(program.bucket_at(p.channel, p.slot).node, DataNode)
                for p in bucket.child_pointers[:2]
            )
        )
        first, second = parent.child_pointers[:2]
        # Two pointers to one data bucket: the second child is stranded.
        parent.child_pointers[1] = first
        with pytest.raises(ScheduleError) as raised:
            compile_dense(program)
        message = str(raised.value)
        assert f"reach {first.label!r}" in message
        assert "more than once" in message
        assert f"unreachable through the compiled pointers: {second.label}" in (
            message
        )

    def test_pointer_cycle_raises(self):
        program = _program(channels=2)
        root = program.root_bucket()
        child = program.bucket_at(
            root.child_pointers[0].channel, root.child_pointers[0].slot
        )
        assert isinstance(child.node, IndexNode)
        # A pointer back to the root: following it would never end.
        child.child_pointers[0] = Pointer(
            channel=root.channel, slot=root.slot, offset=0, label="loop"
        )
        with pytest.raises(ScheduleError, match="more than once"):
            compile_dense(program)

"""Unit tests for pointer compilation."""

from __future__ import annotations

import pytest

from repro.broadcast.pointers import compile_program
from repro.broadcast.schedule import BroadcastSchedule
from repro.core.optimal import solve
from repro.planners import available_planners, plan_catalog


class TestCompileProgram:
    def test_every_cell_has_a_bucket(self, fig1_tree):
        schedule = BroadcastSchedule.from_sequence(fig1_tree, fig1_tree.nodes())
        program = compile_program(schedule)
        assert program.channels == 1
        assert program.cycle_length == 9
        assert len(program.buckets[0]) == 9

    def test_index_buckets_point_to_their_children(self, fig1_tree):
        schedule = BroadcastSchedule.from_sequence(fig1_tree, fig1_tree.nodes())
        program = compile_program(schedule)
        root_bucket = program.root_bucket()
        assert root_bucket.node is fig1_tree.root
        labels = [p.label for p in root_bucket.child_pointers]
        assert labels == ["2", "3"]
        for pointer in root_bucket.child_pointers:
            target = program.bucket_at(pointer.channel, pointer.slot)
            assert target.node is not None
            assert target.node.label == pointer.label

    def test_child_pointer_offsets_positive(self, fig1_tree):
        result = solve(fig1_tree, channels=2)
        program = compile_program(result.schedule)
        for row in program.buckets:
            for bucket in row:
                for pointer in bucket.child_pointers:
                    assert pointer.offset > 0
                    assert pointer.offset == pointer.slot - bucket.slot

    def test_channel_one_buckets_carry_next_cycle_pointer(self, fig1_tree):
        result = solve(fig1_tree, channels=2)
        program = compile_program(result.schedule)
        cycle = program.cycle_length
        root_channel, root_slot = result.schedule.position(fig1_tree.root)
        for slot in range(1, cycle + 1):
            pointer = program.bucket_at(1, slot).next_cycle_pointer
            assert pointer is not None
            assert pointer.channel == root_channel
            assert pointer.slot == root_slot
            assert pointer.offset == cycle - slot + root_slot

    def test_other_channels_have_no_next_cycle_pointer(self, fig1_tree):
        result = solve(fig1_tree, channels=2)
        program = compile_program(result.schedule)
        for slot in range(1, program.cycle_length + 1):
            assert program.bucket_at(2, slot).next_cycle_pointer is None

    def test_empty_cells_flagged(self, fig1_tree):
        result = solve(fig1_tree, channels=2)
        program = compile_program(result.schedule)
        empty = [
            bucket
            for row in program.buckets
            for bucket in row
            if bucket.is_empty
        ]
        # 2 channels x 5 slots - 9 nodes = 1 idle bucket.
        assert len(empty) == 1
        assert not empty[0].is_index and not empty[0].is_data


class TestCycleLength:
    def test_grid_row_length_matches_the_schedule_for_every_planner(self):
        """The program reads its cycle off the bucket grid; it must agree
        with the schedule's own placement scan whatever planned it."""
        labels = [f"d{i:02d}" for i in range(14)]
        weights = [float(1 + (7 * i) % 11) for i in range(len(labels))]
        for method in available_planners():
            program = None
            # Some planners decline some widths (the data-tree solver
            # is single-channel only, corollary 1 needs a channel per
            # node of the widest level); take the first width accepted.
            for channels in (2, 1, len(labels)):
                try:
                    result = plan_catalog(
                        labels, weights, channels, method=method
                    )
                except ValueError:
                    continue
                program = compile_program(result.schedule)
                break
            assert program is not None, method
            assert program.cycle_length == program.schedule.cycle_length, method

"""Tests for the frame-level receiver (agreement + failure injection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.broadcast.bucket import Bucket
from repro.broadcast.pointers import compile_program
from repro.client.protocol import object_walk
from repro.core.optimal import solve
from repro.io.wire import WireFormatError, encode_bucket, encode_program
from repro.io.wire_client import wire_walk
from repro.tree.alphabetic import optimal_alphabetic_tree
from repro.workloads.catalogs import stock_catalog


@pytest.fixture
def alphabetic_setup():
    rng = np.random.default_rng(0)
    items = stock_catalog(rng, count=10)
    tree = optimal_alphabetic_tree(
        [i.label for i in items],
        [i.weight for i in items],
        fanout=2,
        keys=[i.key for i in items],
    )
    result = solve(tree, channels=2)
    program = compile_program(result.schedule)
    return tree, program, encode_program(program)


class TestAgreementWithObjectProtocol:
    def test_all_targets_all_slots(self, alphabetic_setup):
        tree, program, frames = alphabetic_setup
        cycle = program.cycle_length
        for leaf in tree.data_nodes():
            for tune_slot in range(1, cycle + 1):
                wire = wire_walk(frames, leaf.label, tune_slot)
                obj = object_walk(program, leaf, tune_slot)
                assert wire.access_time == obj.access_time
                assert wire.data_wait == obj.data_wait
                assert wire.tuning_time == obj.tuning_time
                assert wire.channel_switches == obj.channel_switches

    def test_payload_delivered(self, alphabetic_setup):
        tree, _, frames = alphabetic_setup
        leaf = tree.data_nodes()[0]
        record = wire_walk(frames, leaf.label, 1)
        assert record.payload == f"item:{leaf.label}".encode()

    def test_single_channel_program(self):
        rng = np.random.default_rng(1)
        items = stock_catalog(rng, count=8)
        tree = optimal_alphabetic_tree(
            [i.label for i in items],
            [i.weight for i in items],
            fanout=3,
        )
        program = compile_program(solve(tree, channels=1).schedule)
        frames = encode_program(program)
        for leaf in tree.data_nodes():
            record = wire_walk(frames, leaf.label, 2)
            assert record.channel_switches == 0
            assert record.data_wait == program.schedule.slot_of(leaf)


class TestFailureModes:
    def test_tune_slot_bounds(self, alphabetic_setup):
        _, _, frames = alphabetic_setup
        with pytest.raises(ValueError):
            wire_walk(frames, "AAPL", 0)

    def test_missing_key_detected(self, alphabetic_setup):
        from repro.exceptions import ReproError

        _, _, frames = alphabetic_setup
        with pytest.raises(ReproError):
            wire_walk(frames, "ZZZZ", 1)

    def test_corrupted_root_frame_detected(self, alphabetic_setup):
        tree, program, frames = alphabetic_setup
        frames = [list(row) for row in frames]
        root_channel, root_slot = program.schedule.position(tree.root)
        corrupted = bytearray(frames[root_channel - 1][root_slot - 1])
        corrupted[0] = 7  # invalid type byte
        frames[root_channel - 1][root_slot - 1] = bytes(corrupted)
        with pytest.raises(WireFormatError):
            wire_walk(frames, tree.data_nodes()[0].label, 1)

    def test_zeroed_channel1_frame_detected(self, alphabetic_setup):
        _, program, frames = alphabetic_setup
        frames = [list(row) for row in frames]
        size = len(frames[0][0])
        # A well-formed empty frame that lacks the next-cycle pointer.
        frames[0][2] = encode_bucket(Bucket(channel=1, slot=3), size)
        with pytest.raises(WireFormatError, match="next-cycle"):
            wire_walk(frames, "AAPL", 3)

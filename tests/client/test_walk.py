"""Unit tests for the sans-io pointer-walk state machine.

The machine's contract is exact agreement with the object-level
protocol (:func:`repro.client.protocol.object_walk` /
``recovering_walk``) when driven over the frame grid of the same
compiled program — plus hard errors on every malformed input a real
frame stream could present.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.client.protocol import (
    RecoveryPolicy,
    object_walk,
    recovering_walk,
)
from repro.client.walk import Listen, LookupFailed, PointerWalk, WalkResult
from repro.exceptions import ReproError
from repro.faults import CORRUPT, LOST, FaultConfig, FaultInjector
from repro.io.wire import (
    DecodedBucket,
    DecodedPointer,
    WireFormatError,
    decode_bucket,
    encode_program,
)


@pytest.fixture
def program():
    # Key routing needs a search tree (the paper's §1 premise); the
    # Fig. 1 example's labels are not in alphabetic tree order, so use
    # the same alphabetic catalog the net harness airs.
    from repro.net import build_demo_program

    return build_demo_program(
        items=12, channels=2, fanout=3, planner="sorting", seed=9
    )


def drive(program, frames, key, tune_slot, *, injector=None, policy=None):
    """Run one walk over an encoded frame grid, applying ``injector``."""
    cycle = program.cycle_length
    walk = PointerWalk(key, tune_slot, cycle, policy=policy)
    while (listen := walk.next_listen()) is not None:
        fate = (
            injector.outcome(listen.channel, listen.absolute_slot)
            if injector is not None
            else "ok"
        )
        if fate == LOST:
            walk.on_loss()
        elif fate == CORRUPT:
            walk.on_loss(corrupt=True)
        else:
            slot = (listen.absolute_slot - 1) % cycle + 1
            walk.deliver(decode_bucket(frames[listen.channel - 1][slot - 1]))
    return walk.result


class TestLosslessParity:
    def test_every_key_and_slot_matches_object_walk(self, program):
        frames = encode_program(program)
        for leaf in program.schedule.tree.data_nodes():
            for tune_slot in range(1, program.cycle_length + 1):
                expected = object_walk(program, leaf, tune_slot)
                got = drive(program, frames, leaf.label, tune_slot)
                assert got.access_time == expected.access_time
                assert got.probe_wait == expected.probe_wait
                assert got.data_wait == expected.data_wait
                assert got.tuning_time == expected.tuning_time
                assert got.channel_switches == expected.channel_switches
                assert got.payload == f"item:{leaf.label}".encode()
                assert not got.abandoned

    def test_first_listen_is_the_probe(self):
        walk = PointerWalk("A", 4, 10)
        assert walk.next_listen() == Listen(channel=1, absolute_slot=4)


class TestLossyParity:
    @pytest.mark.parametrize("mode", ["retry-parent", "next-cycle"])
    def test_matches_recovering_walk(self, program, mode):
        frames = encode_program(program)
        injector = FaultInjector(
            FaultConfig(loss=0.2, corruption=0.05, seed=42)
        )
        policy = RecoveryPolicy(mode=mode, max_cycles=6)
        for leaf in program.schedule.tree.data_nodes():
            for tune_slot in range(1, program.cycle_length + 1):
                expected = recovering_walk(
                    program, leaf, tune_slot, faults=injector, policy=policy
                )
                got = drive(
                    program,
                    frames,
                    leaf.label,
                    tune_slot,
                    injector=injector,
                    policy=policy,
                )
                assert got.access_time == expected.access_time
                assert got.tuning_time == expected.tuning_time
                assert got.channel_switches == expected.channel_switches
                assert got.lost_buckets == expected.lost_buckets
                assert got.corrupt_buckets == expected.corrupt_buckets
                assert got.retries == expected.retries
                assert got.wasted_probes == expected.wasted_probes
                assert got.cycles_spent == expected.cycles_spent
                assert got.abandoned == expected.abandoned

    def test_abandons_at_the_deadline(self):
        walk = PointerWalk("A", 1, 5, policy=RecoveryPolicy(max_cycles=2))
        while walk.next_listen() is not None:
            walk.on_loss()  # nothing ever arrives
        result = walk.result
        assert result.abandoned
        assert result.payload == b""
        assert result.lost_buckets == result.tuning_time
        assert result.wasted_probes == result.tuning_time
        assert result.access_time == 2 * 5 - 1 + 1  # deadline-bounded


class TestMachineEdges:
    def test_rejects_bad_tune_slot(self):
        with pytest.raises(ValueError):
            PointerWalk("A", 0, 10)
        with pytest.raises(ValueError):
            PointerWalk("A", 11, 10)
        with pytest.raises(ValueError):
            PointerWalk("A", 1, 0)

    def test_result_before_finish_raises(self):
        walk = PointerWalk("A", 1, 10)
        with pytest.raises(ReproError, match="not finished"):
            walk.result

    def test_deliver_after_finish_raises(self):
        walk = PointerWalk("A", 1, 2, policy=RecoveryPolicy(max_cycles=2))
        while walk.next_listen() is not None:
            walk.on_loss()
        assert walk.done
        with pytest.raises(ReproError, match="already finished"):
            walk.deliver(DecodedBucket("empty"))
        with pytest.raises(ReproError, match="already finished"):
            walk.on_loss()

    def test_probe_without_next_cycle_pointer(self):
        walk = PointerWalk("A", 1, 10)
        with pytest.raises(WireFormatError, match="next-cycle pointer"):
            walk.deliver(DecodedBucket("empty", next_cycle_offset=0))

    def test_next_cycle_pointer_off_the_root(self):
        walk = PointerWalk("A", 1, 10)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=3))
        with pytest.raises(WireFormatError, match="off the index root"):
            walk.deliver(DecodedBucket("data", label="A", payload=b"x"))

    def test_pointer_onto_empty_bucket(self):
        walk = PointerWalk("A", 1, 10)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=3))
        walk.deliver(
            DecodedBucket(
                "index",
                label="root",
                pointers=(DecodedPointer(2, 2, "Z"),),
            )
        )
        with pytest.raises(WireFormatError, match="empty bucket"):
            walk.deliver(DecodedBucket("empty"))

    def test_lookup_failure_on_wrong_data(self):
        walk = PointerWalk("A", 1, 10)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=3))
        walk.deliver(
            DecodedBucket(
                "index",
                label="root",
                pointers=(DecodedPointer(2, 2, "Z"),),
            )
        )
        with pytest.raises(LookupFailed, match="ended at"):
            walk.deliver(DecodedBucket("data", label="B", payload=b"x"))

    def test_index_without_pointers(self):
        walk = PointerWalk("A", 1, 10)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=3))
        with pytest.raises(WireFormatError, match="no pointers"):
            walk.deliver(DecodedBucket("index", label="root"))

    def test_non_positive_pointer_offset(self):
        walk = PointerWalk("A", 1, 10)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=3))
        with pytest.raises(WireFormatError, match="non-positive"):
            walk.deliver(
                DecodedBucket(
                    "index",
                    label="root",
                    pointers=(DecodedPointer(2, 0, "Z"),),
                )
            )

    def test_routes_past_the_largest_key_to_the_last_pointer(self):
        walk = PointerWalk("ZZZ", 1, 20)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=3))
        walk.deliver(
            DecodedBucket(
                "index",
                label="root",
                pointers=(DecodedPointer(1, 2, "B"), DecodedPointer(2, 3, "M")),
            )
        )
        # The key exceeds every separator; the walk must still land
        # somewhere — on the last pointer, channel 2, 3 slots on.
        assert walk.next_listen() == Listen(channel=2, absolute_slot=7)


def _root(cycle: int, *pointers: DecodedPointer) -> DecodedBucket:
    """A channel-1 root: its next-cycle pointer spans one cycle."""
    return DecodedBucket(
        "index", label="root", next_cycle_offset=cycle, pointers=pointers
    )


class TestRestartRecovery:
    """After a cutover restart, losses are recovered in the new cycle."""

    def restarted(self) -> PointerWalk:
        walk = PointerWalk("A", 1, 10)
        walk.observe_version(1)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=10))
        assert walk.observe_version(2)  # cutover at slot 11
        assert walk.next_listen() == Listen(1, 12)
        return walk

    def test_a_lost_root_before_the_cycle_is_known_reprobes(self):
        walk = self.restarted()
        walk.deliver(DecodedBucket("empty", next_cycle_offset=5))
        assert walk.next_listen() == Listen(1, 17)
        walk.on_loss()
        # The retired cycle (10) would say slot 27; the walk cannot
        # know the new plan's, so it probes channel 1 again.
        assert walk.next_listen() == Listen(1, 18)
        assert walk.depth is None

    def test_the_root_teaches_the_new_cycle(self):
        walk = self.restarted()
        walk.deliver(DecodedBucket("empty", next_cycle_offset=4))
        walk.deliver(_root(7, DecodedPointer(2, 3, "Z")))  # root at 16
        assert walk.next_listen() == Listen(2, 19)
        walk.on_loss()
        # retry-parent: the root's next airing in the new 7-slot cycle.
        assert walk.next_listen() == Listen(1, 23)
        walk.deliver(_root(7, DecodedPointer(2, 3, "Z")))
        walk.on_loss(corrupt=True)
        assert walk.next_listen() == Listen(1, 30)

    def test_next_cycle_mode_waits_one_new_cycle(self):
        walk = PointerWalk("A", 1, 10, policy=RecoveryPolicy(mode="next-cycle"))
        walk.observe_version(1)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=10))
        assert walk.observe_version(2)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=4))
        walk.deliver(_root(7, DecodedPointer(2, 3, "Z")))
        walk.on_loss()
        assert walk.next_listen() == Listen(2, 19 + 7)

    def test_without_a_cutover_the_built_cycle_counts(self):
        walk = PointerWalk("A", 1, 10)
        walk.deliver(DecodedBucket("empty", next_cycle_offset=4))
        walk.on_loss()  # the root, before any parent was read
        assert walk.next_listen() == Listen(1, 15)


class TestWalkResultRecord:
    FIELDS = [
        ("key", dataclasses.MISSING),
        ("tune_slot", dataclasses.MISSING),
        ("access_time", dataclasses.MISSING),
        ("probe_wait", dataclasses.MISSING),
        ("data_wait", dataclasses.MISSING),
        ("tuning_time", dataclasses.MISSING),
        ("channel_switches", dataclasses.MISSING),
        ("lost_buckets", 0),
        ("corrupt_buckets", 0),
        ("retries", 0),
        ("wasted_probes", 0),
        ("cycles_spent", 1),
        ("abandoned", False),
        ("cutovers", 0),
        ("payload", b""),
    ]

    def test_fields_order_and_defaults_are_kept(self):
        assert [
            (field.name, field.default)
            for field in dataclasses.fields(WalkResult)
        ] == self.FIELDS

    def test_keyword_construction_and_replace(self, program):
        record = drive(program, encode_program(program), "K003", 2)
        again = WalkResult(
            **{field.name: getattr(record, field.name)
               for field in dataclasses.fields(WalkResult)}
        )
        assert again == record
        abandoned = dataclasses.replace(record, abandoned=True, payload=b"")
        assert abandoned.abandoned and abandoned.payload == b""
        assert abandoned.key == record.key and not record.abandoned

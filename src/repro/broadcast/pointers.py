"""Pointer wiring: compile a schedule into navigable buckets (§2.1).

Clients navigate the broadcast by following ``(channel, offset)`` pointers
embedded in index buckets. This module materialises a schedule into a grid
of :class:`~repro.broadcast.bucket.Bucket` objects with:

* one child pointer per index-tree child inside every index bucket,
* a next-cycle pointer in every bucket of channel 1 (so a client tuning in
  at an arbitrary moment can reach the root of the next cycle),
* empty buckets for idle (channel, slot) cells.

The resulting :class:`BroadcastProgram` is what the client simulator in
``repro.client`` actually "listens" to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tree.node import IndexNode
from .bucket import Bucket, Pointer
from .schedule import BroadcastSchedule

__all__ = ["BroadcastProgram", "compile_program"]


@dataclass
class BroadcastProgram:
    """A pointer-wired broadcast cycle.

    ``buckets[c-1][s-1]`` is the bucket on channel ``c`` at slot ``s``.
    The program repeats cyclically on air; slot arithmetic beyond
    ``cycle_length`` wraps into the next cycle.
    """

    schedule: BroadcastSchedule
    buckets: list[list[Bucket]]
    # Per bucket size, the grid last encoded and, once it was encoded
    # twice, its frames (see :func:`repro.io.wire.encode_program`).
    _frames: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def channels(self) -> int:
        return self.schedule.channels

    @property
    def cycle_length(self) -> int:
        # The grid's row length: the schedule's own property rescans
        # every placement on each read.
        return len(self.buckets[0])

    def bucket_at(self, channel: int, slot: int) -> Bucket:
        """Bucket on ``channel`` at cycle-relative ``slot`` (1-based)."""
        return self.buckets[channel - 1][slot - 1]

    def root_bucket(self) -> Bucket:
        """The bucket carrying the index-tree root."""
        channel, slot = self.schedule.position(self.schedule.tree.root)
        return self.bucket_at(channel, slot)


def compile_program(schedule: BroadcastSchedule) -> BroadcastProgram:
    """Wire child and next-cycle pointers into a bucket grid."""
    placement = schedule._placement
    cycle = schedule.cycle_length
    buckets = [
        [Bucket(c, s) for s in range(1, cycle + 1)]
        for c in range(1, schedule.channels + 1)
    ]

    for node, (channel, slot) in placement.items():
        bucket = buckets[channel - 1][slot - 1]
        bucket.node = node
        if isinstance(node, IndexNode):
            pointers = []
            for child in node.children:
                child_channel, child_slot = placement[child]
                pointers.append(Pointer(
                    child_channel, child_slot, child_slot - slot, child.label
                ))
            bucket.child_pointers = pointers

    root = schedule.tree.root
    root_channel, root_slot = placement[root]
    for slot, bucket in enumerate(buckets[0], start=1):
        # Offset from this slot to the root bucket of the *next* cycle.
        bucket.next_cycle_pointer = Pointer(
            root_channel, root_slot, cycle - slot + root_slot, root.label
        )
    return BroadcastProgram(schedule=schedule, buckets=buckets)

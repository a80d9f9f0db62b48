"""The mobile client's access protocol (§1, §2.1), over a compiled program.

A portable computer can listen to one channel at a time; between useful
buckets it dozes. To fetch a data item it:

1. tunes into the first channel at some slot and reads whatever bucket is
   airing — every channel-1 bucket carries a pointer to the first bucket
   of the next cycle;
2. dozes to the next cycle, reads the index root, and then follows child
   pointers — ``(channel, offset)`` pairs — down the index tree, dozing
   between reads and switching channels as the pointers dictate;
3. reads the target data bucket.

:func:`object_walk` executes this walk against a compiled
:class:`~repro.broadcast.pointers.BroadcastProgram` and reports the access
time (slots elapsed), tuning time (buckets actually read — the energy
cost) and channel switches. :func:`recovering_walk` is the same walk over
the :mod:`repro.faults` channel model. Both drive the one scalar walk,
:class:`~repro.client.walk.PointerWalk`, feeding it buckets read off the
program's grid: the walk never consults the schedule directly — only
bucket pointers — so it genuinely validates the pointer wiring. The
same walk runs over encoded frames in
:func:`repro.io.wire_client.wire_walk` and, vectorised, in
:func:`repro.engine.run_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..broadcast.pointers import BroadcastProgram
from ..exceptions import ScheduleError
from ..faults import CORRUPT, OK, FaultConfig, FaultInjector
from ..io.wire import DecodedBucket, DecodedPointer
from ..obs.events import Tracer
from ..tree.node import DataNode, IndexNode, Node
# RecoveryPolicy lives with the walk; it is re-exported from here, where
# callers have always imported it.
from .walk import PointerWalk, RecoveryPolicy, WalkResult

__all__ = [
    "AccessRecord",
    "RecoveryPolicy",
    "RecoveredAccessRecord",
    "object_walk",
    "recovering_walk",
]


@dataclass(frozen=True)
class AccessRecord:
    """Measured outcome of one client request.

    Attributes
    ----------
    target:
        Label of the requested data item.
    tune_slot:
        Cycle-relative slot (1-based) at which the client tuned in.
    access_time:
        Slots from the start of the tune-in slot to the end of the
        target's slot.
    probe_wait:
        Slots from tune-in through reading the index root.
    data_wait:
        ``T(D_i)`` — the target's slot offset within its cycle.
    tuning_time:
        Buckets actively read (initial probe + root + index path + data).
    channel_switches:
        Channel changes performed after the initial tune-in.
    """

    target: str
    tune_slot: int
    access_time: int
    probe_wait: int
    data_wait: int
    tuning_time: int
    channel_switches: int


def object_walk(
    program: BroadcastProgram,
    target: Node,
    tune_slot: int,
    *,
    tracer: Tracer | None = None,
    walk_id: int | None = None,
) -> AccessRecord:
    """Execute one request for ``target`` tuning in at ``tune_slot``.

    ``tune_slot`` is cycle-relative (1..cycle_length) on channel 1.
    Raises :class:`ScheduleError` if the pointer walk derails (which a
    correctly compiled program cannot do).

    When ``tracer`` is enabled the walk narrates each read
    (:class:`~repro.obs.events.SlotRead`), re-tune
    (:class:`~repro.obs.events.ChannelHop`) and its completion
    (:class:`~repro.obs.events.WalkFinished`) — and, through a
    span-capable tracer, its ``walk.run`` span — exactly as every other
    :class:`~repro.client.walk.PointerWalk` driver does, so object-level
    and frame-level traces are diffable. ``walk_id`` stamps the events'
    ``walk`` correlation field.
    """
    result = _drive(program, target, tune_slot, tracer=tracer, walk_id=walk_id)
    return _record(AccessRecord, target, result)


@dataclass(frozen=True)
class RecoveredAccessRecord(AccessRecord):
    """An :class:`AccessRecord` measured over an unreliable channel.

    The inherited fields keep their meaning (and are bit-identical to
    :func:`object_walk` when nothing is lost). The extras account for
    the channel's damage:

    ``lost_buckets`` / ``corrupt_buckets`` — reads that aired but never
    became usable (dropped vs checksum-failed); ``retries`` — recovery
    re-tunes performed; ``wasted_probes`` — bucket reads beyond the
    lossless walk's (energy burned on the fault, failed reads and
    re-reads alike); ``cycles_spent`` — broadcast cycles the walk
    spanned; ``abandoned`` — the give-up bound was hit before the data
    bucket was read (such records carry the time spent *until* giving
    up and must not enter access-time means).
    """

    lost_buckets: int = 0
    corrupt_buckets: int = 0
    retries: int = 0
    wasted_probes: int = 0
    cycles_spent: int = 1
    abandoned: bool = False


def recovering_walk(
    program: BroadcastProgram,
    target: Node,
    tune_slot: int,
    *,
    faults: FaultInjector | FaultConfig | None = None,
    policy: RecoveryPolicy | None = None,
    tracer: Tracer | None = None,
    walk_id: int | None = None,
) -> RecoveredAccessRecord:
    """Execute one request over an unreliable channel, recovering on loss.

    Every tuned-to bucket may be lost or corrupt per ``faults`` (a
    corrupt frame is detected by the wire checksum, so the client treats
    it as lost); the client then recovers per ``policy`` and the record
    counts what the damage cost. The broadcast repeats cyclically, so
    every bucket airs again one cycle later.

    With ``faults`` absent (or a zero-probability config) every
    inherited field of the returned record is **bit-identical** to
    :func:`object_walk` — the differential invariant the test suite
    locks. ``tracer``/``walk_id`` narrate the walk as in
    :func:`object_walk`, with every failed read carrying its
    ``outcome`` (``"lost"``/``"corrupt"``) so :mod:`repro.obs.attrib`
    can charge recovery time to the fault.
    """
    if isinstance(faults, FaultConfig):
        faults = FaultInjector(faults)
    result = _drive(
        program, target, tune_slot,
        faults=faults, policy=policy, tracer=tracer, walk_id=walk_id,
    )
    return _record(RecoveredAccessRecord, target, result)


def _drive(
    program: BroadcastProgram,
    target: Node,
    tune_slot: int,
    *,
    faults: FaultInjector | None = None,
    policy: RecoveryPolicy | None = None,
    tracer: Tracer | None = None,
    walk_id: int | None = None,
) -> WalkResult:
    """Run one :class:`PointerWalk` to ``target`` over ``program``'s grid.

    Each read is served from :meth:`BroadcastProgram.bucket_at`, unless
    ``faults`` dooms its airing. An index bucket is delivered with its
    pointer table narrowed to the one child on the target's root path:
    the walk routes a one-entry table to that entry whatever the key,
    so plans whose subtrees' key ranges interleave (``ptas``) stay
    walkable. Every read is checked to land on the node the path
    expects, so a miswired pointer raises :class:`ScheduleError`.
    """
    if not isinstance(target, DataNode):
        raise ValueError("targets must be data nodes")
    path = [*reversed(list(target.ancestors())), target]
    cycle = program.cycle_length
    walk = PointerWalk(
        target.label, tune_slot, cycle,
        policy=policy, tracer=tracer, walk_id=walk_id,
    )
    while (listen := walk.next_listen()) is not None:
        if faults is not None:
            fate = faults.outcome(listen.channel, listen.absolute_slot)
            if fate != OK:
                walk.on_loss(corrupt=fate == CORRUPT)
                continue
        slot = (listen.absolute_slot - 1) % cycle + 1
        bucket = program.bucket_at(listen.channel, slot)
        depth = walk.depth
        if depth is None:
            pointer = bucket.next_cycle_pointer
            if pointer is None:
                raise ScheduleError("channel-1 bucket lacks a next-cycle pointer")
            # A probe reads nothing but the next-cycle offset.
            walk.deliver(DecodedBucket("empty", next_cycle_offset=pointer.offset))
            continue
        node = bucket.node
        if node is not path[depth]:
            raise ScheduleError(
                f"pointer to {path[depth].label!r} landed on "
                f"{node.label if node else 'an empty bucket'!r}"
            )
        if isinstance(node, IndexNode):
            pointer = _pointer_for(bucket, path[depth + 1])
            walk.deliver(
                DecodedBucket(
                    "index",
                    label=node.label,
                    pointers=(DecodedPointer(pointer.channel, pointer.offset, ""),),
                )
            )
        else:
            walk.deliver(DecodedBucket("data", label=node.label))
    return walk.result


#: Record fields copied from the walk's result (all but ``target``).
_RESULT_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.name != "target")
    for cls in (AccessRecord, RecoveredAccessRecord)
}


def _record(cls, target: Node, result: WalkResult):
    """``result`` re-labelled as a ``cls`` record of ``target``."""
    return cls(
        target=target.label,
        **{name: getattr(result, name) for name in _RESULT_FIELDS[cls]},
    )


def _pointer_for(bucket, child: Node):
    """The child pointer leading to ``child``.

    Pointers are compiled in ``node.children`` order, so position — not
    the (possibly duplicated) label — identifies the right one, the same
    way a real bucket's pointer table is keyed by search-key range.
    """
    node = bucket.node
    assert isinstance(node, IndexNode)
    for position, candidate in enumerate(node.children):
        if candidate is child:
            return bucket.child_pointers[position]
    raise ScheduleError(
        f"index bucket {node.label!r} has no pointer to {child.label!r}"
    )

"""A receiver that navigates the broadcast from raw frames only.

Where :mod:`repro.client.protocol` feeds the walk buckets from the
in-memory object graph, this client sees nothing but the byte stream of
:mod:`repro.io.wire`: it decodes each frame it tunes to, routes by
comparing its search key against the pointer table's ``key_hi``
separators (an alphabetic index tree is a search tree — the property
the paper insists on in §1), and dozes between frames.

The walk itself lives in :class:`repro.client.walk.PointerWalk` — the
sans-io state machine this module *drives* against an in-memory frame
grid, exactly as the asyncio tuner of :mod:`repro.net` drives it
against a socket and :mod:`repro.client.protocol` against a compiled
program. Agreement with the object-level protocol is asserted in the
test suite, closing the serialisation loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .wire import decode_bucket

if TYPE_CHECKING:
    from ..client.walk import WalkResult

__all__ = ["wire_walk"]


def wire_walk(
    frames: list[list[bytes]],
    key: str,
    tune_slot: int,
    *,
    tracer=None,
    walk_id: int | None = None,
    trace_context: tuple[int, int] | None = None,
) -> WalkResult:
    """Fetch the item with search key ``key`` from an encoded cycle.

    ``frames[channel-1][slot-1]`` is the byte frame aired on that cell;
    the cycle repeats. The client tunes into channel 1 at ``tune_slot``,
    follows the next-cycle pointer to the root, then routes down the
    index by key comparison, and returns the walk's
    :class:`~repro.client.walk.WalkResult`. Raises
    :class:`WireFormatError` on corrupt frames and :class:`ReproError`
    when the key routes nowhere.

    ``tracer`` is an optional :class:`~repro.obs.events.Tracer` the walk
    narrates into — the hook the trace-diff tooling uses to replay a
    request trace through the simulator in the live fleet's vocabulary.
    ``walk_id`` stamps the emitted events' ``walk`` correlation field
    (see :class:`~repro.obs.events.SlotRead`). ``trace_context`` is an
    optional ``(trace_id, span_id)`` causal context — what a wire-v3
    envelope would have carried had this grid been on live air — so a
    simulated walk driven through a span-capable tracer parents its
    segment spans exactly like a socket tuner's.
    """
    # Imported lazily: repro.client.walk itself builds on repro.io.wire,
    # and the package inits would otherwise form a cycle.
    from ..client.walk import PointerWalk

    cycle = len(frames[0])
    walk = PointerWalk(key, tune_slot, cycle, tracer=tracer, walk_id=walk_id)
    if trace_context is not None:
        walk.observe_trace(*trace_context)
    while (listen := walk.next_listen()) is not None:
        slot = (listen.absolute_slot - 1) % cycle + 1
        bucket = decode_bucket(
            frames[listen.channel - 1][slot - 1],
            channel=listen.channel,
            offset=slot,
        )
        walk.deliver(bucket)
    return walk.result

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

import functools
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
    (see :class:`~repro.obs.events.SlotRead`).
    """
    cycle = len(frames[0])
    walk = _pointer_walk()(
        key, tune_slot, cycle, tracer=tracer, walk_id=walk_id
    )
    while (listen := walk.next_listen()) is not None:
        slot = (listen.absolute_slot - 1) % cycle + 1
        bucket = decode_bucket(
            frames[listen.channel - 1][slot - 1],
            channel=listen.channel,
            offset=slot,
        )
        walk.deliver(bucket)
    return walk.result


@functools.cache
def _pointer_walk():
    """:class:`~repro.client.walk.PointerWalk`, imported on first use.

    ``repro.client.walk`` builds on :mod:`repro.io.wire`, so importing
    it when this module loads would form a cycle between the package
    inits, and would load :mod:`repro.client` and :mod:`repro.obs`
    with every import of :mod:`repro.io`.
    """
    from ..client.walk import PointerWalk

    return PointerWalk

"""RingBufferTracer under a concurrent 1000-tuner fleet.

The ring is the always-on sink every component tees into, so its
accounting must survive heavy concurrent emission: a bounded memory
footprint, ``dropped + retained == emitted`` exactly, and a drain
order that is the emission order — deterministically, run after run.

The fleet here is 1000 asyncio tuner tasks doing real pointer walks
through one shared ring (the socket fleet exercises the identical
tracer plumbing but is far too slow at this scale for CI).
"""

from __future__ import annotations

import asyncio
import tracemalloc

import numpy as np
import pytest

from repro.client import object_walk
from repro.net import build_demo_program, make_request_trace
from repro.obs.events import RingBufferTracer, TeeTracer, WalkFinished

FLEET = 1000
CAPACITY = 2048

#: Peak extra memory allowed for the whole fleet run. The ring itself
#: holds CAPACITY frozen dataclasses (a few hundred KiB); the cap
#: leaves room for the walks' own transient allocations while still
#: failing loudly if the ring ever stops evicting.
MEMORY_CAP_BYTES = 64 * 1024 * 1024


class _CountingTracer:
    """Unbounded reference sink: the ground truth the ring must match."""

    enabled = True

    def __init__(self) -> None:
        self.events = []

    def emit(self, event) -> None:
        self.events.append(event)


async def _run_fleet(program, trace, ring):
    counter = _CountingTracer()
    tee = TeeTracer(counter, ring)
    leaves = {leaf.label: leaf for leaf in program.schedule.tree.data_nodes()}

    async def one_tuner(index, key, tune_slot):
        # Yield to the loop so a thousand walks genuinely interleave
        # with each other before and after emitting.
        await asyncio.sleep(0)
        object_walk(program, leaves[key], tune_slot, tracer=tee, walk_id=index)
        await asyncio.sleep(0)

    await asyncio.gather(
        *(
            one_tuner(index, key, slot)
            for index, (key, slot) in enumerate(trace)
        )
    )
    return counter


@pytest.fixture(scope="module")
def fleet_run():
    program = build_demo_program(items=12, channels=2, seed=17)
    trace = make_request_trace(
        program, FLEET, np.random.default_rng(5)
    )
    ring = RingBufferTracer(capacity=CAPACITY)
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        counter = asyncio.run(_run_fleet(program, trace, ring))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return program, trace, ring, counter, peak - baseline


class TestAccounting:
    def test_no_dropped_event_miscounts(self, fleet_run):
        _, _, ring, counter, _ = fleet_run
        emitted = len(counter.events)
        assert emitted > CAPACITY  # the fleet really overflowed it
        assert ring.dropped + len(ring) == emitted
        assert len(ring) == CAPACITY  # full, not over-full

    def test_every_walk_finished_was_emitted(self, fleet_run):
        _, trace, _, counter, _ = fleet_run
        finished = [
            e for e in counter.events if isinstance(e, WalkFinished)
        ]
        assert len(finished) == len(trace)
        assert {  # every tuner's walk id accounted for, exactly once
            e.walk for e in finished
        } == set(range(len(trace)))


class TestMemoryCap:
    def test_peak_memory_stays_bounded(self, fleet_run):
        *_, peak_delta = fleet_run
        assert peak_delta < MEMORY_CAP_BYTES

    def test_ring_window_is_the_newest_slice(self, fleet_run):
        _, _, ring, counter, _ = fleet_run
        assert ring.events == counter.events[-CAPACITY:]


class TestDrainOrder:
    def test_drain_is_stable_and_non_consuming(self, fleet_run):
        _, _, ring, _, _ = fleet_run
        first = ring.events
        second = ring.events
        assert first == second
        assert list(ring) == first
        assert len(ring) == CAPACITY  # reading never consumed anything

    def test_drain_order_is_reproducible_across_runs(self):
        program = build_demo_program(items=12, channels=2, seed=17)
        trace = make_request_trace(
            program, FLEET, np.random.default_rng(5)
        )

        def drained():
            ring = RingBufferTracer(capacity=CAPACITY)
            asyncio.run(_run_fleet(program, trace, ring))
            return ring.events, ring.dropped

        events_a, dropped_a = drained()
        events_b, dropped_b = drained()
        assert events_a == events_b
        assert dropped_a == dropped_b

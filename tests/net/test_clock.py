"""Tests for the station's slot clock."""

from __future__ import annotations

import asyncio

from repro.net.clock import SlotClock


def run(coro):
    return asyncio.run(coro)


class TestLogicalTime:
    def test_wait_for_returns_immediately(self):
        async def scenario():
            clock = SlotClock(0.0)
            await clock.wait_for(10_000)  # no pacing: logical time
            await clock.aclose()

        run(scenario())

    def test_no_ticks_without_start(self):
        async def scenario():
            clock = SlotClock(0.0)
            await asyncio.sleep(0)
            assert clock.aired == 0
            await clock.aclose()

        run(scenario())


class TestPacedTime:
    def test_ticks_advance_and_notify(self):
        async def scenario():
            clock = SlotClock(0.001)
            clock.start()
            await clock.wait_for(3)
            assert clock.aired >= 3
            await clock.aclose()

        run(scenario())

    def test_start_is_idempotent(self):
        async def scenario():
            clock = SlotClock(0.001)
            clock.start()
            clock.start()
            await clock.wait_for(2)
            await clock.aclose()
            await clock.aclose()  # idempotent too

        run(scenario())

    def test_wait_for_past_slot_returns_immediately(self):
        async def scenario():
            clock = SlotClock(0.001)
            clock.start()
            await clock.wait_for(2)
            await clock.wait_for(1)  # already aired
            await clock.aclose()

        run(scenario())

"""The station's slot clock: logical air time, optionally wall-paced.

Every measurement in this repository is denominated in *slots* — the
broadcast medium's unit of time. A live station therefore needs one
authority for "which absolute slot is on air", and that is this clock.

Two modes:

* ``slot_duration > 0`` — real-time pacing: slot ``n`` goes on air
  ``n · slot_duration`` seconds after :meth:`start`. Consumers
  :meth:`wait_for` a future slot and genuinely sleep (a tuner's doze).
* ``slot_duration == 0`` (default) — free-running logical time:
  :meth:`wait_for` never blocks, and the station never starts the
  clock. The broadcast is cyclic and the fault pattern is a pure
  function of (channel, absolute slot), so an airing's content is
  fully determined whether it is served at its wall-clock instant or
  immediately — this is what lets a loadtest run as fast as the
  hardware allows while keeping slot-denominated measurements exactly
  reproducible.
"""

from __future__ import annotations

import asyncio

__all__ = ["SlotClock"]


class SlotClock:
    """Monotonic 1-based absolute-slot counter driving a station's air."""

    def __init__(self, slot_duration: float = 0.0) -> None:
        if slot_duration < 0:
            raise ValueError("slot_duration must be >= 0")
        self.slot_duration = slot_duration
        self.aired = 0  # highest absolute slot that has gone on air
        self._event = asyncio.Event()
        self._task: asyncio.Task | None = None

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    def start(self) -> None:
        """Begin ticking; idempotent."""
        if not self.running:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-slot-clock"
            )

    async def aclose(self) -> None:
        """Stop ticking; idempotent, safe mid-tick."""
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _run(self) -> None:
        while True:
            self.aired += 1
            self._event.set()
            self._event = asyncio.Event()
            if self.slot_duration > 0:
                await asyncio.sleep(self.slot_duration)
            else:
                await asyncio.sleep(0)

    def has_aired(self, slot: int) -> bool:
        """Whether :meth:`wait_for` ``(slot)`` would return at once.

        Free-running clocks (``slot_duration == 0``) have aired every
        slot: logical time has no future, every airing's content is
        already determined (see module docstring). So has a stopped
        clock, which will never air another.
        """
        return self.slot_duration == 0 or self.aired >= slot or not self.running

    async def wait_for(self, slot: int) -> None:
        """Doze until absolute ``slot`` has gone on air."""
        while not self.has_aired(slot):
            await self._event.wait()

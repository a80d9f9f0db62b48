"""Fault-outcome grids: the channel model materialised for array walks.

The batch engine must reproduce :class:`~repro.faults.FaultInjector`
draws *bit-for-bit* — the differential gate compares every walk against
the scalar recovery walk under the same seed. Rather than re-deriving
the per-channel RNG streams (and risking divergence), this module reads
the injector's own stored fate codes (:meth:`FaultInjector.codes`, one
byte per slot) for every (channel, absolute slot) a bounded walk can
possibly query, packed into one small int8 grid the engine gathers
from. The injector's streams are order-independent, so materialising
them here leaves every other consumer's draws untouched; the read is a
bulk one and narrates no :class:`~repro.obs.events.FaultInjected`
events.
"""

from __future__ import annotations

import numpy as np

from ..faults import FATE_CORRUPT, FATE_LOST, FATE_OK, FaultConfig, FaultInjector

__all__ = ["FATE_OK", "FATE_LOST", "FATE_CORRUPT", "materialise_outcomes"]


def materialise_outcomes(
    faults: FaultInjector | FaultConfig | None,
    channels: int,
    slots: int,
) -> np.ndarray:
    """Outcome grid ``[channel - 1, slot - 1]`` for slots ``1..slots``.

    Slots are origin-relative, exactly as the scalar walk queries them —
    pass a :meth:`FaultInjector.shifted` view to anchor the grid at a
    cycle boundary. ``None`` (or a lossless config) yields an all-OK
    grid, so the engine's faulty path degenerates to the lossless
    numbers the same way the scalar walk does.
    """
    grid = np.zeros((channels, slots), dtype=np.int8)
    if faults is None:
        return grid
    if isinstance(faults, FaultConfig):
        faults = FaultInjector(faults)
    for channel in range(1, channels + 1):
        grid[channel - 1] = faults.codes(channel, slots)
    return grid

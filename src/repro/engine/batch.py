"""The batch walk engine: 10⁵–10⁶ client walks as array iterations.

Two regimes, both bit-identical to the scalar walks they replace (the
differential suite asserts this per walk, not in aggregate):

* **loss-free** — a lossless walk's outcome is a pure function of
  (target, tune slot): every measured number is a closed-form gather
  from the dense program's per-target tables. No iteration at all.
* **faulty** — the recovery walk is a per-walk state machine, but
  between two failed reads its reads are fixed. A walk's probe of
  channel 1 is a function of its tune slot alone: a suffix scan of the
  outcome grid's row 0 (:func:`repro.engine.masks.materialise_outcomes`)
  finds its first OK slot. Its descent from the next root airing is a
  function of its target and that airing's cycle alone, so it runs once
  per distinct pair. Each round moves every active pair in closed form
  to its next event (a failed read, the deadline or the target) with
  one 2-D gather of its remaining hops' fates and a few prefix sums, so
  the rounds number one more than the most faults a pair meets. A
  walk's record is its probe's counts plus its pair's.
"""

from __future__ import annotations

import numpy as np

from ..client.protocol import RecoveryPolicy
from ..faults import FaultConfig, FaultInjector
from .dense import DenseProgram
from .masks import FATE_CORRUPT, FATE_LOST, FATE_OK, materialise_outcomes
from .records import BatchRecords

__all__ = ["run_batch"]

#: Descents × remaining hops one faulty round gathers at once: bounds
#: the round's 2-D temporaries whatever the number of walks.
_GATHER_CELLS = 1 << 15

#: Fate code of a read past the deadline, beyond the injector's codes.
_LATE = 3


def run_batch(
    dense: DenseProgram,
    targets,
    tune_slots,
    *,
    faults: FaultInjector | FaultConfig | None = None,
    recovery: RecoveryPolicy | None = None,
) -> BatchRecords:
    """Execute one walk per (target, tune slot) pair, vectorised.

    ``targets`` holds data ids (indices into ``dense.data_labels``;
    resolve labels with :meth:`DenseProgram.data_index`), ``tune_slots``
    cycle-relative 1-based slots. With neither ``faults`` nor
    ``recovery`` the loss-free path runs and the records mirror
    :func:`~repro.client.protocol.object_walk`; otherwise the recovery
    path runs under ``recovery`` (default :class:`RecoveryPolicy`) and
    the records mirror
    :func:`~repro.client.protocol.recovering_walk` — including
    abandoned-walk accounting — under the same fault seed.
    """
    target_id = np.ascontiguousarray(targets, dtype=np.int64)
    tune = np.ascontiguousarray(tune_slots, dtype=np.int64)
    if target_id.shape != tune.shape or target_id.ndim != 1:
        raise ValueError("targets and tune_slots must be equal-length 1-D")
    cycle = dense.cycle_length
    if target_id.size and (
        target_id.min() < 0 or target_id.max() >= dense.n_data
    ):
        raise ValueError(f"target ids must be in 0..{dense.n_data - 1}")
    if tune.size and (tune.min() < 1 or tune.max() > cycle):
        raise ValueError(f"tune_slots must be in 1..{cycle}")

    if faults is None and recovery is None:
        return _run_lossless(dense, target_id, tune)
    return _run_recovering(dense, target_id, tune, faults, recovery)


def _run_lossless(
    dense: DenseProgram, target_id: np.ndarray, tune: np.ndarray
) -> BatchRecords:
    """Closed-form gathers — the scalar walk has no data-dependent loop."""
    cycle = dense.cycle_length
    wait_to_cycle_end = cycle - tune + 1
    data_wait = dense.target_data_wait[target_id]
    return BatchRecords(
        labels=dense.data_labels,
        target_id=target_id,
        tune_slot=tune,
        access_time=wait_to_cycle_end + data_wait,
        probe_wait=wait_to_cycle_end + dense.root_slot,
        data_wait=data_wait,
        tuning_time=dense.path_len[target_id].astype(np.int64) + 1,
        channel_switches=dense.target_switches[target_id],
    )


def _run_recovering(
    dense: DenseProgram,
    target_id: np.ndarray,
    tune: np.ndarray,
    faults: FaultInjector | FaultConfig | None,
    recovery: RecoveryPolicy | None,
) -> BatchRecords:
    """The recovery state machine, one stretch between faults at a time.

    A walk probes channel 1 until a read succeeds, then descends from
    the root airing of the next cycle. The probe is one closed-form
    stretch per walk. The descent is a pure function of the target and
    that root airing's cycle, so it runs once per distinct pair
    (:func:`_descend`) and each walk adds its probe's counts to its
    pair's.
    """
    if recovery is None:
        recovery = RecoveryPolicy()
    cycle = dense.cycle_length
    deadline = recovery.max_cycles * cycle
    fates = materialise_outcomes(faults, dense.channels, deadline)

    # -- probe channel 1 until a read succeeds -----------------------------
    # Any channel-1 slot serves, so a probe is a function of its tune slot
    # alone: it ends at the first OK slot at or after it (a suffix scan of
    # row 0), every slot before that failed (counted off prefix sums), and
    # it descends from the next cycle's root airing. A probe that never
    # succeeds "hears" slot deadline + 1, whose root airing is too late.
    probe = fates[0]
    heard = np.where(probe == FATE_OK, np.arange(1, deadline + 1),
                     deadline + 1)
    heard = np.minimum.accumulate(heard[::-1])[::-1][:cycle]
    lost_upto = np.zeros(deadline + 1, dtype=np.int64)
    corrupt_upto = np.zeros(deadline + 1, dtype=np.int64)
    np.cumsum(probe == FATE_LOST, out=lost_upto[1:])
    np.cumsum(probe == FATE_CORRUPT, out=corrupt_upto[1:])
    probe_retries = heard - np.arange(1, cycle + 1)
    probe_tuning = probe_retries + (heard <= deadline)
    probe_lost = lost_upto[heard - 1] - lost_upto[:cycle]
    probe_corrupt = corrupt_upto[heard - 1] - corrupt_upto[:cycle]
    root_cycle = (heard - 1) // cycle

    # -- descend once per (target, root cycle) pair ------------------------
    at = tune - 1
    per_target = recovery.max_cycles + 1
    pair_key = target_id * per_target + root_cycle[at]
    used = np.zeros(dense.n_data * per_target, dtype=bool)
    used[pair_key] = True
    pairs = np.flatnonzero(used)
    pair_of = np.empty(used.size, dtype=np.int64)
    pair_of[pairs] = np.arange(pairs.size)
    pair = pair_of[pair_key]
    down = _descend(
        dense, fates, pairs // per_target,
        (pairs % per_target + 1) * cycle + dense.root_slot,
        deadline, recovery.mode == "retry-parent",
    )

    final = down.final[pair]
    abandoned = down.abandoned[pair]
    tuning = probe_tuning[at] + down.tuning[pair]
    root_heard = down.root_heard[pair]
    plen = dense.path_len[target_id].astype(np.int64)
    return BatchRecords(
        labels=dense.data_labels,
        target_id=target_id,
        tune_slot=tune,
        access_time=final - tune + 1,
        probe_wait=np.where(root_heard > 0, root_heard - tune + 1, 0),
        data_wait=final - cycle,
        tuning_time=tuning,
        channel_switches=down.switches[pair],
        recovered=True,
        lost_buckets=probe_lost[at] + down.lost[pair],
        corrupt_buckets=probe_corrupt[at] + down.corrupt[pair],
        retries=probe_retries[at] + down.retries[pair],
        wasted_probes=np.where(abandoned, tuning, tuning - (plen + 1)),
        cycles_spent=(final - 1) // cycle + 1,
        abandoned=abandoned,
    )


class _Descent:
    """Per-pair outcome of a descent, counted from its first root read."""

    def __init__(self, n: int) -> None:
        self.tuning = np.zeros(n, dtype=np.int64)
        self.switches = np.zeros(n, dtype=np.int64)
        self.lost = np.zeros(n, dtype=np.int64)
        self.corrupt = np.zeros(n, dtype=np.int64)
        self.retries = np.zeros(n, dtype=np.int64)
        #: Absolute slot of the first OK root read, 0 before it.
        self.root_heard = np.zeros(n, dtype=np.int64)
        self.final = np.zeros(n, dtype=np.int64)
        self.abandoned = np.zeros(n, dtype=bool)


def _descend(
    dense: DenseProgram,
    fates: np.ndarray,
    target_id: np.ndarray,
    root_read: np.ndarray,
    deadline: int,
    retry_parent: bool,
) -> _Descent:
    """Descend from the root read at ``root_read`` to each target.

    Between two failed reads a walk's reads are fixed: each hop of its
    path at its next airing. So each round moves every active walk in
    closed form to its next event, a failed read, the deadline or the
    target, and books the stretch off prefix sums, in the scalar walk's
    order of operations: the deadline is checked before every read, and
    a switch counts before the read's fate is known. The walks take one
    round per failed read, plus one. The "retry-parent" resume stack
    collapses to a depth counter: when a walk attempts depth ``d``, the
    successfully-read hops are exactly depths ``0..d-1`` of its path, so
    popping the stack *is* ``depth - 1``.
    """
    cycle = dense.cycle_length
    n = target_id.size
    pstart = dense.path_start[target_id].astype(np.int64)
    plen = dense.path_len[target_id].astype(np.int64)
    absolute = root_read.copy()
    depth = np.zeros(n, dtype=np.int64)
    on_channel = np.ones(n, dtype=np.int64)
    out = _Descent(n)

    # -- per-hop tables over the flattened path table ----------------------
    # A hop airs at its slot's first airing strictly after its parent's
    # read, so within a path it is read ``offset[hop] - offset[first]``
    # slots after the stretch's first read, of hop ``first``.
    hop_channel = dense.path_channel.astype(np.int64)
    hop_slot = dense.path_slot.astype(np.int64)
    offset = np.zeros(hop_slot.size, dtype=np.int64)
    np.cumsum((hop_slot[1:] - hop_slot[:-1] - 1) % cycle + 1, out=offset[1:])
    changes = np.zeros(hop_channel.size, dtype=np.int64)
    np.cumsum(hop_channel[1:] != hop_channel[:-1], out=changes[1:])
    # Reads past the deadline gather a _LATE cell of a padded grid. The
    # latest read is a late root read, at most a cycle past the deadline
    # plus the root's slot, and its path ends within that cycle.
    stride = deadline + 2 * cycle
    padded = np.full((dense.channels, stride), _LATE, dtype=np.int8)
    padded[:, :deadline] = fates
    padded = padded.ravel()
    # Hop ``h`` read at time ``t`` is cell ``key[h] + t`` of ``padded``.
    # Row ``h`` of ``window`` holds the keys of hops ``h, h + 1, ...``;
    # cells past a path's end fall on other paths (or are clipped) and
    # are ignored.
    width = int(dense.path_len.max(initial=1))
    key = np.zeros(hop_slot.size + width - 1, dtype=np.int64)
    key[:hop_slot.size] = (hop_channel - 1) * stride - 1 + offset
    window = np.lib.stride_tricks.sliding_window_view(key, width)

    def advance(walks: np.ndarray) -> np.ndarray:
        """Run ``walks`` to their next event; return those that failed a read."""
        at = depth[walks]
        first = pstart[walks] + at
        left = plen[walks] - at
        start = absolute[walks] - offset[first]
        cells = window[first, :int(left.max())]
        cells += start[:, None]
        fate = np.take(padded, cells, mode="clip")
        # Each row's first failed or late read, where it is on the path.
        bad = np.flatnonzero(fate != FATE_OK)
        row, col = np.divmod(bad, fate.shape[1])
        head = np.ones(bad.size, dtype=bool)
        np.not_equal(row[1:], row[:-1], out=head[1:])
        row, col, bad = row[head], col[head], bad[head]
        on_path = col < left[row]
        row, col = row[on_path], col[on_path]
        event = fate.ravel()[bad[on_path]]
        late = event == _LATE

        reads = left.copy()
        reads[row] = col + ~late
        last = first + reads - 1
        end = start + offset[last]
        out.tuning[walks] += reads
        moved = (
            (hop_channel[first] != on_channel[walks])
            + changes[last] - changes[first]
        )
        unread = row[col == 0]
        moved[row[late & (col == 0)]] = 0
        out.switches[walks] += moved
        # The root's first successful read ends the probe wait.
        fresh = (at == 0) & (out.root_heard[walks] == 0)
        fresh[unread] = False
        fresh = walks[fresh]
        out.root_heard[fresh] = absolute[fresh]
        out.final[walks] = end
        gone = walks[row[late]]
        out.final[gone] = deadline
        out.abandoned[gone] = True

        # Failed reads: count the fault, then resume as the policy says.
        row, event = row[~late], event[~late]
        walks, hop, when = walks[row], last[row], end[row]
        out.retries[walks] += 1
        out.lost[walks] += event == FATE_LOST
        out.corrupt[walks] += event == FATE_CORRUPT
        on_channel[walks] = hop_channel[hop]
        depth[walks] = hop - pstart[walks]
        resume = when + cycle
        if retry_parent:
            # The root has no parent; it recovers next cycle.
            up = depth[walks] > 0
            depth[walks[up]] -= 1
            resume[up] = _next_airing(hop_slot[hop[up] - 1], when[up], cycle)
        absolute[walks] = resume
        return walks

    active = np.arange(n)
    while active.size:
        block = max(1, _GATHER_CELLS // int(
            (plen[active] - depth[active]).max()))
        active = np.concatenate([
            advance(active[lo:lo + block])
            for lo in range(0, active.size, block)
        ])
    return out


def _next_airing(slot: np.ndarray, after: np.ndarray, cycle: int) -> np.ndarray:
    """First absolute time strictly after ``after`` when ``slot`` airs."""
    airing = after + (slot - after) % cycle
    airing[airing == after] += cycle
    return airing

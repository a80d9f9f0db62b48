"""Dense compiled schedules: the bucket grid as flat numpy arrays.

A :class:`~repro.broadcast.pointers.BroadcastProgram` is a grid of
Python objects — perfect for validating pointer wiring, hopeless for
running 10⁵ walks. Following the pack-format idiom (batch many small
records into dense containers *before* touching them), this module
compiles a program once into :class:`DenseProgram`: per-(channel, slot)
``kind``/``data_id`` grids, a flattened child-pointer table, and — the
part that makes a lossless walk a handful of gathers — per-target *path
tables* giving the (channel, slot) sequence from the index root down to
every data node.

The path tables are built by walking the compiled **pointers**, not the
schedule, so compiling dense re-validates the wiring exactly as the
object-level walk would: a data node the pointers cannot reach raises
:class:`~repro.exceptions.ScheduleError` at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..broadcast.pointers import BroadcastProgram
from ..exceptions import ScheduleError
from ..tree.node import IndexNode

__all__ = ["DenseProgram", "compile_dense", "KIND_EMPTY", "KIND_INDEX", "KIND_DATA"]

KIND_EMPTY = 0
KIND_INDEX = 1
KIND_DATA = 2


@dataclass(frozen=True)
class DenseProgram:
    """One broadcast cycle as flat arrays — everything a batch walk needs.

    Grids are indexed ``[channel - 1, slot - 1]`` (the same 1-based
    convention as :meth:`BroadcastProgram.bucket_at`, shifted once here
    instead of per access). The child-pointer table is flattened:
    bucket ``(c, s)`` owns ``child_channel[child_start[c-1, s-1] + j]``
    for ``j < child_count[c-1, s-1]``, in ``node.children`` order.

    ``data_labels[d]`` names data id ``d`` (``tree.data_nodes()``
    order); ``path_channel``/``path_slot`` hold target ``d``'s
    root-to-target hop sequence at ``path_start[d] .. path_start[d] +
    path_len[d]``. ``target_data_wait``/``target_switches`` are the
    lossless walk's per-target constants, precomputed so the loss-free
    batch path is pure gathers.
    """

    channels: int
    cycle_length: int
    root_channel: int
    root_slot: int
    kind: np.ndarray  # int8 (channels, cycle)
    data_id: np.ndarray  # int32 (channels, cycle), -1 where not data
    child_start: np.ndarray  # int32 (channels, cycle)
    child_count: np.ndarray  # int32 (channels, cycle)
    child_channel: np.ndarray  # int32 (total children,)
    child_slot: np.ndarray  # int32 (total children,)
    data_labels: tuple[str, ...]
    path_start: np.ndarray  # int32 (n_data,)
    path_len: np.ndarray  # int32 (n_data,)
    path_channel: np.ndarray  # int32 (total path hops,)
    path_slot: np.ndarray  # int32 (total path hops,)
    target_data_wait: np.ndarray  # int64 (n_data,)
    target_switches: np.ndarray  # int64 (n_data,)

    @property
    def n_data(self) -> int:
        """Number of data items the cycle carries."""
        return len(self.data_labels)

    def data_index(self, label: str) -> int:
        """The data id of ``label`` (raises ``KeyError`` when absent)."""
        try:
            return self._label_index[label]
        except AttributeError:
            lookup = {name: i for i, name in enumerate(self.data_labels)}
            object.__setattr__(self, "_label_index", lookup)
            return lookup[label]


def compile_dense(program: BroadcastProgram) -> DenseProgram:
    """Flatten a pointer-wired program into a :class:`DenseProgram`.

    The per-target path tables are discovered by following the compiled
    child pointers from the root bucket (never the schedule), so a
    mis-wired pointer — one that lands on the wrong bucket or strands a
    data node — fails here with :class:`ScheduleError`, exactly where
    the object-level walk would have derailed.
    """
    channels = program.channels
    cycle = program.cycle_length
    kind = np.zeros((channels, cycle), dtype=np.int8)
    data_id = np.full((channels, cycle), -1, dtype=np.int32)
    child_start = np.zeros((channels, cycle), dtype=np.int32)
    child_count = np.zeros((channels, cycle), dtype=np.int32)
    child_channel: list[int] = []
    child_slot: list[int] = []

    tree = program.schedule.tree
    data_nodes = tree.data_nodes()
    data_labels = tuple(node.label for node in data_nodes)
    id_of = {id(node): index for index, node in enumerate(data_nodes)}

    for row in program.buckets:
        for bucket in row:
            c, s = bucket.channel - 1, bucket.slot - 1
            if bucket.node is None:
                continue
            if isinstance(bucket.node, IndexNode):
                kind[c, s] = KIND_INDEX
                child_start[c, s] = len(child_channel)
                child_count[c, s] = len(bucket.child_pointers)
                for pointer in bucket.child_pointers:
                    child_channel.append(pointer.channel)
                    child_slot.append(pointer.slot)
            else:
                d = id_of.get(id(bucket.node))
                if d is None:
                    raise ScheduleError(
                        f"bucket grid carries a data node "
                        f"{bucket.node.label!r} that is not in the tree's "
                        "catalog"
                    )
                kind[c, s] = KIND_DATA
                data_id[c, s] = d

    root = program.root_bucket()
    root_channel, root_slot = root.channel, root.slot

    # Per-target paths, discovered through the pointers themselves.
    path_start = np.zeros(len(data_nodes), dtype=np.int32)
    path_len = np.zeros(len(data_nodes), dtype=np.int32)
    path_channel: list[int] = []
    path_slot: list[int] = []
    reached = 0
    stack = [(root, [(root_channel, root_slot)])]
    while stack:
        bucket, trail = stack.pop()
        node = bucket.node
        if node is None:
            raise ScheduleError(
                f"pointer walk reached an empty bucket at channel "
                f"{bucket.channel}, slot {bucket.slot}"
            )
        if isinstance(node, IndexNode):
            for pointer in bucket.child_pointers:
                child = program.bucket_at(pointer.channel, pointer.slot)
                stack.append((child, trail + [(pointer.channel, pointer.slot)]))
        else:
            d = id_of.get(id(node))
            if d is None:
                raise ScheduleError(
                    f"pointer walk reached a data node {node.label!r} "
                    "that is not in the tree's catalog"
                )
            path_start[d] = len(path_channel)
            path_len[d] = len(trail)
            for hop_channel, hop_slot in trail:
                path_channel.append(hop_channel)
                path_slot.append(hop_slot)
            reached += 1
    if reached != len(data_nodes):
        missing = [
            node.label
            for node in data_nodes
            if path_len[id_of[id(node)]] == 0
        ]
        raise ScheduleError(
            f"{len(data_nodes) - reached} data node(s) unreachable "
            f"through the compiled pointers: {', '.join(missing)}"
        )

    path_channel_arr = np.asarray(path_channel, dtype=np.int32)
    path_slot_arr = np.asarray(path_slot, dtype=np.int32)

    # Lossless per-target constants: every hop lands at cycle + slot, so
    # data_wait is the target's own slot; switches count the root hop
    # off channel 1 plus every channel change along the path, read off
    # one prefix sum of changes at each path's two ends.
    path_end = path_start + path_len - 1
    target_data_wait = path_slot_arr[path_end].astype(np.int64)
    changes = np.zeros(len(path_channel_arr), dtype=np.int64)
    np.cumsum(
        path_channel_arr[1:] != path_channel_arr[:-1], out=changes[1:]
    )
    target_switches = (
        (path_channel_arr[path_start] != 1)
        + changes[path_end]
        - changes[path_start]
    )

    return DenseProgram(
        channels=channels,
        cycle_length=cycle,
        root_channel=root_channel,
        root_slot=root_slot,
        kind=kind,
        data_id=data_id,
        child_start=child_start,
        child_count=child_count,
        child_channel=np.asarray(child_channel, dtype=np.int32),
        child_slot=np.asarray(child_slot, dtype=np.int32),
        data_labels=data_labels,
        path_start=path_start,
        path_len=path_len,
        path_channel=path_channel_arr,
        path_slot=path_slot_arr,
        target_data_wait=target_data_wait,
        target_switches=target_switches,
    )

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

The path tables are built by following the compiled **pointers**, not
the schedule, so compiling dense re-validates the wiring as the
object-level walk would. One Python pass reads the bucket grid; the
rest are array passes. The pointers are followed level by level from
the root, recording each reached bucket's parent, and every target's
path is gathered up through the parents. A pointer that leaves the
grid, lands on an empty bucket or reaches a bucket a second time (a
cycle, or two pointers to one bucket), or a data node no pointer
reaches, raises :class:`~repro.exceptions.ScheduleError` at compile
time.
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
    mis-wired pointer — one that lands on the wrong bucket, reaches a
    bucket twice or strands a data node — fails here with
    :class:`ScheduleError`, exactly where the object-level walk would
    have derailed.
    """
    channels = program.channels
    cycle = program.cycle_length
    tree = program.schedule.tree
    data_nodes = tree.data_nodes()
    data_labels = tuple(node.label for node in data_nodes)
    id_of = {id(node): index for index, node in enumerate(data_nodes)}

    # One pass over the grid, row-major: cell ``(c - 1) * cycle + s - 1``.
    index_cells: list[int] = []
    data_cells: list[int] = []
    data_ids: list[int] = []
    counts: list[int] = []
    pointers: list = []
    cell = 0
    for row in program.buckets:
        for bucket in row:
            node = bucket.node
            if isinstance(node, IndexNode):
                index_cells.append(cell)
                counts.append(len(bucket.child_pointers))
                pointers.extend(bucket.child_pointers)
            elif node is not None:
                d = id_of.get(id(node))
                if d is None:
                    raise ScheduleError(
                        f"bucket grid carries a data node {node.label!r} "
                        "that is not in the tree's catalog"
                    )
                data_cells.append(cell)
                data_ids.append(d)
            cell += 1
    cells = channels * cycle
    kind = np.zeros(cells, dtype=np.int8)
    kind[index_cells] = KIND_INDEX
    kind[data_cells] = KIND_DATA
    data_id = np.full(cells, -1, dtype=np.int32)
    data_id[data_cells] = data_ids
    child_count = np.zeros(cells, dtype=np.int32)
    child_count[index_cells] = counts
    child_start = np.zeros(cells, dtype=np.int32)
    child_start[index_cells] = np.cumsum(counts, dtype=np.int32) - counts
    child_channel = np.array([p.channel for p in pointers], dtype=np.int32)
    child_slot = np.array([p.slot for p in pointers], dtype=np.int32)

    root = program.root_bucket()
    root_channel, root_slot = root.channel, root.slot
    hop_cell, via, depth, twice = _pointer_paths(
        kind, child_start, child_count, child_channel, child_slot,
        (root_channel - 1) * cycle + root_slot - 1, channels, cycle,
    )
    target = data_id[hop_cell[np.arange(depth.size), depth]]
    reached = np.bincount(target, minlength=len(data_nodes))
    if twice is not None or (reached == 0).any():
        raise _wiring_error(program, data_labels, reached, twice)

    # Per-target paths, in the order a last-child-first depth-first walk
    # of the pointers meets the targets: by their paths' child-table
    # entries, compared hop by hop, the later entry first.
    order = np.lexsort(-via.T[::-1])
    hop_cell, target, length = hop_cell[order], target[order], depth[order] + 1
    path_start = np.zeros(len(data_nodes), dtype=np.int32)
    path_len = np.zeros(len(data_nodes), dtype=np.int32)
    path_len[target] = length
    path_start[target] = np.cumsum(length) - length
    hops = hop_cell[np.arange(hop_cell.shape[1]) < length[:, None]]
    path_channel_arr = (hops // cycle + 1).astype(np.int32)
    path_slot_arr = (hops % cycle + 1).astype(np.int32)

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

    shape = (channels, cycle)
    return DenseProgram(
        channels=channels,
        cycle_length=cycle,
        root_channel=root_channel,
        root_slot=root_slot,
        kind=kind.reshape(shape),
        data_id=data_id.reshape(shape),
        child_start=child_start.reshape(shape),
        child_count=child_count.reshape(shape),
        child_channel=child_channel,
        child_slot=child_slot,
        data_labels=data_labels,
        path_start=path_start,
        path_len=path_len,
        path_channel=path_channel_arr,
        path_slot=path_slot_arr,
        target_data_wait=target_data_wait,
        target_switches=target_switches,
    )


def _pointer_paths(kind, child_start, child_count, child_channel, child_slot,
                   root, channels, cycle):
    """Every data cell the pointers reach, with its path from ``root``.

    Cells are flat row-major grid indices. The pointers are followed
    level by level from ``root``; each reached cell records its parent
    and the child-table entry that reached it, and each data cell's path
    is then gathered up through the parents. Returns ``(cells, entries,
    depth, twice)``: row ``i`` of ``cells``/``entries`` holds data cell
    ``i``'s path and the entries that reached it, root first, up to
    column ``depth[i]`` (the rest is padding; the root's entry is
    ``-1``). ``twice`` is the first cell a pointer reached again
    (``None`` when none was); a second reach is not followed.
    """
    off = np.flatnonzero(
        (child_channel < 1) | (child_channel > channels)
        | (child_slot < 1) | (child_slot > cycle)
    )
    if off.size:
        raise ScheduleError(
            f"pointer off the grid: channel {child_channel[off[0]]}, "
            f"slot {child_slot[off[0]]}"
        )
    child_cell = (child_channel.astype(np.int64) - 1) * cycle + child_slot - 1
    parent = np.zeros(kind.size, dtype=np.int64)
    via = np.full(kind.size, -1, dtype=np.int64)
    seen = np.zeros(kind.size, dtype=bool)
    stamp = np.zeros(kind.size, dtype=np.int64)
    seen[root] = True
    frontier = np.array([root], dtype=np.int64)
    leaves, leaf_depth = [], []
    twice = None
    level = 0
    while frontier.size:
        kinds = kind[frontier]
        data = frontier[kinds == KIND_DATA]
        leaves.append(data)
        leaf_depth.append(np.full(data.size, level, dtype=np.int64))
        owner = frontier[kinds == KIND_INDEX]
        counts = child_count[owner]
        step = np.arange(counts.sum())
        entry = step + np.repeat(
            child_start[owner] - (np.cumsum(counts) - counts), counts
        )
        child = child_cell[entry]
        empty = np.flatnonzero(kind[child] == KIND_EMPTY)
        if empty.size:
            channel, slot = divmod(int(child[empty[0]]), cycle)
            raise ScheduleError(
                f"pointer walk reached an empty bucket at channel "
                f"{channel + 1}, slot {slot + 1}"
            )
        owner = np.repeat(owner, counts)
        # Follow one pointer per cell, and none to a cell an earlier
        # level reached; a cell reached twice is reported, not followed.
        stamp[child] = step
        fresh = (stamp[child] == step) & ~seen[child]
        if not fresh.all():
            if twice is None:
                twice = int(child[np.flatnonzero(~fresh)[0]])
            child, owner, entry = child[fresh], owner[fresh], entry[fresh]
        seen[child] = True
        parent[child] = owner
        via[child] = entry
        frontier = child
        level += 1

    leaf = np.concatenate(leaves)
    depth = np.concatenate(leaf_depth)
    cells = np.zeros((leaf.size, level), dtype=np.int64)
    rows = np.arange(leaf.size)
    for up in range(level):
        live = depth >= up
        cells[rows[live], depth[live] - up] = leaf[live]
        leaf = parent[leaf]
    return cells, via[cells], depth, twice


def _wiring_error(program, data_labels, reached, twice) -> ScheduleError:
    """Name the bucket reached twice and every data node left unreached."""
    problems = []
    if twice is not None:
        channel, slot = divmod(twice, program.cycle_length)
        node = program.bucket_at(channel + 1, slot + 1).node
        problems.append(
            f"pointers reach {node.label!r} at channel {channel + 1}, "
            f"slot {slot + 1} more than once"
        )
    missing = [data_labels[d] for d in np.flatnonzero(reached == 0)]
    if missing:
        problems.append(
            f"{len(missing)} data node(s) unreachable through the compiled "
            f"pointers: {', '.join(missing)}"
        )
    return ScheduleError("; ".join(problems))

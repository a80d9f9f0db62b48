"""The :class:`BroadcastSchedule` — a realised index-and-data allocation.

A schedule is the mapping function ``f : I ∪ D → C × S`` of §2.2: every
index and data node of the tree gets exactly one ``(channel, slot)``
position in the broadcast cycle (no replication). Feasibility requires a
child to air at a strictly later slot than its parent.

The class stores the assignment, validates feasibility, computes the
paper's objective (the weighted average data wait, formula (1)) and
renders the channel grid the way the paper's Fig. 2 draws it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..exceptions import ScheduleError
from ..tree.index_tree import IndexTree
from ..tree.node import Node

__all__ = ["BroadcastSchedule"]


class BroadcastSchedule:
    """An allocation of tree nodes to (channel, slot) positions.

    Parameters
    ----------
    tree:
        The index tree being broadcast.
    placement:
        Mapping from node object to ``(channel, slot)``, both 1-based.
    channels:
        Number of channels available. Defaults to the largest channel
        used; passing it explicitly lets a schedule under-use channels.
    validate:
        Check feasibility immediately (default). Searches that build
        schedules from already-verified paths may skip this.
    """

    def __init__(
        self,
        tree: IndexTree,
        placement: Mapping[Node, tuple[int, int]],
        channels: int | None = None,
        validate: bool = True,
    ) -> None:
        self.tree = tree
        self._placement: dict[Node, tuple[int, int]] = dict(placement)
        used_channels = max((c for c, _ in self._placement.values()), default=1)
        self.channels = channels if channels is not None else used_channels
        if validate:
            self.validate()

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_sequence(
        cls, tree: IndexTree, order: Sequence[Node], validate: bool = True
    ) -> "BroadcastSchedule":
        """Single-channel schedule from a broadcast order (slot 1, 2, ...)."""
        placement = {node: (1, slot) for slot, node in enumerate(order, start=1)}
        return cls(tree, placement, channels=1, validate=validate)

    @classmethod
    def from_slot_groups(
        cls,
        tree: IndexTree,
        groups: Sequence[Sequence[Node]],
        channels: int,
        validate: bool = True,
    ) -> "BroadcastSchedule":
        """Schedule from compound slot groups (one group per slot).

        Channel choice within each group follows the §3.1 rules: the root
        goes to channel 1, and a node prefers the channel its index-tree
        parent used when that channel is still free in its slot — this
        minimises client channel switches. See
        :func:`repro.broadcast.assembly.assemble_schedule` for the
        rule-driven public entry point; this constructor applies the same
        policy.
        """
        from .assembly import assign_channels  # local import avoids a cycle

        placement = assign_channels(groups, channels)
        return cls(tree, placement, channels=channels, validate=validate)

    # -- lookups ----------------------------------------------------------------
    def position(self, node: Node) -> tuple[int, int]:
        """``(channel, slot)`` of ``node``."""
        return self._placement[node]

    def channel_of(self, node: Node) -> int:
        return self._placement[node][0]

    def slot_of(self, node: Node) -> int:
        """``T(node)``: 1-based slot index from the start of the cycle."""
        return self._placement[node][1]

    def nodes(self) -> Iterable[Node]:
        return self._placement.keys()

    @property
    def cycle_length(self) -> int:
        """Number of slots in the broadcast cycle."""
        return max((s for _, s in self._placement.values()), default=0)

    def node_at(self, channel: int, slot: int) -> Node | None:
        """The node broadcast at (channel, slot), or ``None`` if idle."""
        for node, (c, s) in self._placement.items():
            if c == channel and s == slot:
                return node
        return None

    def grid(self) -> list[list[Node | None]]:
        """``grid()[c-1][s-1]`` is the node on channel c at slot s (or None)."""
        cycle = self.cycle_length
        table: list[list[Node | None]] = [
            [None] * cycle for _ in range(self.channels)
        ]
        for node, (channel, slot) in self._placement.items():
            table[channel - 1][slot - 1] = node
        return table

    # -- objective -----------------------------------------------------------------
    def data_wait(self) -> float:
        """Formula (1): ``Σ W(D_i)·T(D_i) / Σ W(D_i)``.

        ``T(D_i)`` is the slot offset of data node ``D_i`` from the first
        bucket of the cycle (measured in buckets). Verified against the
        paper's worked values 6.01 and 3.88 in the test suite.
        """
        total_weight = 0.0
        weighted_wait = 0.0
        for node in self.tree.data_nodes():
            total_weight += node.weight
            weighted_wait += node.weight * self.slot_of(node)
        if total_weight == 0:
            return 0.0
        return weighted_wait / total_weight

    # -- invariants -----------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScheduleError` unless the schedule is feasible.

        Checks: every tree node placed exactly once; channels within
        ``1..self.channels``; slots positive; at most one node per
        (channel, slot) cell; and every child airs strictly after its
        parent (§2.2 feasibility).
        """
        _validate_placement(self, self.tree.nodes())

    # -- rendering -----------------------------------------------------------------
    def to_ascii(self) -> str:
        """Render the channel grid like the paper's Fig. 2."""
        table = self.grid()
        width = max(
            [2] + [len(n.label) for n in self._placement]
        )
        lines = []
        for channel_index, row in enumerate(table, start=1):
            cells = " ".join(
                (node.label if node is not None else ".").rjust(width)
                for node in row
            )
            lines.append(f"C{channel_index} | {cells}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BroadcastSchedule channels={self.channels} "
            f"cycle={self.cycle_length} wait={self.data_wait():.3f}>"
        )


def _validate_placement(
    schedule: BroadcastSchedule, tree_nodes: list[Node]
) -> None:
    """:meth:`BroadcastSchedule.validate` over the tree's preorder nodes."""
    placement = schedule._placement
    if len(placement) != len(tree_nodes):
        raise ScheduleError(
            f"placement covers {len(placement)} nodes, "
            f"tree has {len(tree_nodes)}"
        )
    for node in tree_nodes:
        if node not in placement:  # nodes hash and compare by identity
            raise ScheduleError(f"node {node.label!r} is not placed")

    channels = schedule.channels
    cells: set[tuple[int, int]] = set()
    for node, (channel, slot) in placement.items():
        if not 1 <= channel <= channels:
            raise ScheduleError(
                f"node {node.label!r} on channel {channel}, "
                f"schedule has {channels}"
            )
        if slot < 1:
            raise ScheduleError(f"node {node.label!r} at slot {slot} < 1")
        if (channel, slot) in cells:
            raise ScheduleError(
                f"two nodes share channel {channel} slot {slot}"
            )
        cells.add((channel, slot))

    for node in tree_nodes:
        parent = node.parent
        if parent is None:
            continue
        slot = placement[node][1]
        parent_slot = placement[parent][1]
        if slot <= parent_slot:
            raise ScheduleError(
                f"child {node.label!r} (slot {slot}) does "
                f"not air after parent {parent.label!r} "
                f"(slot {parent_slot})"
            )

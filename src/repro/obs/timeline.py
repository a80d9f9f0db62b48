"""Reconstruct per-(channel, slot) timelines from traces, and diff them.

A JSONL trace (:class:`~repro.obs.events.JsonlTracer`) is a flat event
stream; operations questions are per *coordinate*: what aired on
channel 2 at slot 47, who read it, what did the fault model do to it?
:func:`build_timeline` folds a stream into exactly that — one
:class:`SlotCell` per (channel, absolute slot) touched by any event —
plus walk-level aggregates.

:func:`diff_timelines` then compares two reconstructions on their
*read* activity. Reads are emitted by the shared
:class:`~repro.client.walk.PointerWalk` (so a live socket fleet and the
in-process simulator narrate in the same vocabulary and the same
slot-denominated coordinates), and on a lossless channel the walks are
bit-identical — which makes the first divergent cell of a
live-vs-simulator or lossy-vs-lossless diff the exact place the air
first departed from the model. That turns the loadtest's binary parity
verdict into an explanation: not "MISMATCH" but "channel 2, slot 47:
live read it twice (first outcome: lost), simulator once".

``repro.cli obs timeline`` and ``obs diff`` are the command-line faces
of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import event_to_dict, read_events

__all__ = [
    "SlotCell",
    "Timeline",
    "CellDivergence",
    "TimelineDiff",
    "build_timeline",
    "load_timeline",
    "diff_timelines",
    "diff_trace_files",
    "format_timeline",
    "format_diff",
]


@dataclass
class SlotCell:
    """Everything one (channel, absolute slot) coordinate experienced."""

    channel: int
    slot: int
    #: airings by fate ("ok"/"lost"/"corrupt") — from SlotAired events
    aired: dict[str, int] = field(default_factory=dict)
    #: fault-model decisions by fate — from FaultInjected events
    faults: dict[str, int] = field(default_factory=dict)
    #: receiver reads as a counted multiset: (key, outcome) → count.
    #: Counts, not a list: a hot cell (the channel-1 probe slot of a
    #: big fleet) is read by thousands of walks but touches only a
    #: handful of distinct (key, outcome) pairs, so the timeline's
    #: memory stays proportional to distinct activity, not trace size.
    read_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: channel hops that landed here
    hops: int = 0

    def count_read(self, key: str, outcome: str) -> None:
        pair = (key, outcome)
        self.read_counts[pair] = self.read_counts.get(pair, 0) + 1

    @property
    def reads(self) -> list[tuple[str, str]]:
        """The cell's reads expanded to (key, outcome) pairs, sorted."""
        return [
            pair
            for pair in sorted(self.read_counts)
            for _ in range(self.read_counts[pair])
        ]

    @property
    def total_reads(self) -> int:
        return sum(self.read_counts.values())

    @property
    def read_signature(self) -> tuple[tuple[str, str], ...]:
        """Order-independent summary of the cell's read activity.

        A concurrent fleet finishes walks in nondeterministic order, so
        two traces of the same seeded run list a cell's reads in
        different sequences; the sorted multiset is what must agree.
        """
        return tuple(self.reads)

    @property
    def fate(self) -> str:
        """The airing's dominant fate ("ok" when nothing went wrong)."""
        for fate in ("lost", "corrupt"):
            if self.aired.get(fate) or self.faults.get(fate):
                return fate
        return "ok"


@dataclass
class Timeline:
    """A trace folded into coordinates plus walk-level aggregates."""

    cells: dict[tuple[int, int], SlotCell] = field(default_factory=dict)
    walks: int = 0
    abandoned: int = 0
    access_time_total: int = 0
    tuning_time_total: int = 0
    retries: int = 0
    replans: int = 0
    events: int = 0
    unknown_events: int = 0

    def cell(self, channel: int, slot: int) -> SlotCell:
        key = (channel, slot)
        found = self.cells.get(key)
        if found is None:
            found = self.cells[key] = SlotCell(channel=channel, slot=slot)
        return found

    @property
    def mean_access_time(self) -> float:
        done = self.walks - self.abandoned
        return self.access_time_total / done if done else 0.0

    @property
    def mean_tuning_time(self) -> float:
        done = self.walks - self.abandoned
        return self.tuning_time_total / done if done else 0.0

    def ordered_cells(self) -> list[SlotCell]:
        """Cells in air order: by slot, then channel."""
        return [
            self.cells[key]
            for key in sorted(self.cells, key=lambda k: (k[1], k[0]))
        ]


def build_timeline(records) -> Timeline:
    """Fold an event stream (dicts or typed events) into a :class:`Timeline`."""
    timeline = Timeline()
    for record in records:
        if not isinstance(record, dict):
            record = event_to_dict(record)  # typed event from a ring buffer
        timeline.events += 1
        kind = record.get("kind")
        if kind == "slot_read":
            cell = timeline.cell(record["channel"], record["absolute_slot"])
            cell.count_read(
                record.get("key", ""), record.get("outcome", "ok")
            )
        elif kind == "slot_aired":
            cell = timeline.cell(record["channel"], record["absolute_slot"])
            fate = record.get("fate", "ok")
            cell.aired[fate] = cell.aired.get(fate, 0) + 1
        elif kind == "fault_injected":
            cell = timeline.cell(record["channel"], record["absolute_slot"])
            fate = record.get("fate", "lost")
            cell.faults[fate] = cell.faults.get(fate, 0) + 1
        elif kind == "channel_hop":
            cell = timeline.cell(
                record["to_channel"], record["absolute_slot"]
            )
            cell.hops += 1
        elif kind == "walk_finished":
            timeline.walks += 1
            timeline.retries += record.get("retries", 0)
            if record.get("abandoned"):
                timeline.abandoned += 1
            else:
                timeline.access_time_total += record.get("access_time", 0)
                timeline.tuning_time_total += record.get("tuning_time", 0)
        elif kind == "replan_finished":
            timeline.replans += 1
        elif kind in ("replan_started", "search_progress"):
            pass  # no coordinate; counted in ``events`` only
        else:
            timeline.unknown_events += 1
    return timeline


def load_timeline(path: str) -> Timeline:
    """Read one JSONL trace file into a :class:`Timeline`."""
    return build_timeline(read_events(path))


@dataclass(frozen=True)
class CellDivergence:
    """One coordinate where two traces disagree on read activity."""

    channel: int
    slot: int
    reads_a: tuple[tuple[str, str], ...]
    reads_b: tuple[tuple[str, str], ...]
    fate_a: str
    fate_b: str

    def describe(self, label_a: str = "A", label_b: str = "B") -> str:
        def side(label, reads, fate):
            if not reads:
                return f"{label} never read it"
            outcomes = [outcome for _, outcome in reads]
            bad = [o for o in outcomes if o != "ok"]
            detail = f"{len(reads)} read(s)"
            if bad:
                detail += f", {len(bad)} {'/'.join(sorted(set(bad)))}"
            if fate != "ok":
                detail += f" (aired {fate})"
            return f"{label}: {detail}"

        return (
            f"channel {self.channel}, slot {self.slot}: "
            f"{side(label_a, self.reads_a, self.fate_a)}; "
            f"{side(label_b, self.reads_b, self.fate_b)}"
        )


@dataclass
class TimelineDiff:
    """Outcome of comparing two timelines coordinate by coordinate."""

    divergences: list[CellDivergence]
    cells_compared: int
    walks_a: int
    walks_b: int
    mean_access_a: float
    mean_access_b: float
    mean_tuning_a: float
    mean_tuning_b: float

    @property
    def identical(self) -> bool:
        return not self.divergences

    @property
    def first_divergence(self) -> tuple[int, int] | None:
        """The earliest disagreeing (channel, slot), in air order."""
        if not self.divergences:
            return None
        first = self.divergences[0]
        return (first.channel, first.slot)


def diff_timelines(a: Timeline, b: Timeline) -> TimelineDiff:
    """Compare read activity cell by cell, earliest slot first.

    Only *reads* are compared: a live trace additionally carries
    station-side events (airings, fault decisions) that a simulator
    replay has no counterpart for; those enrich the explanation but
    never count as divergence on their own.
    """
    keys = set(a.cells) | set(b.cells)
    divergences: list[CellDivergence] = []
    compared = 0
    empty = SlotCell(channel=0, slot=0)
    for channel, slot in sorted(keys, key=lambda k: (k[1], k[0])):
        cell_a = a.cells.get((channel, slot), empty)
        cell_b = b.cells.get((channel, slot), empty)
        reads_a = cell_a.read_signature
        reads_b = cell_b.read_signature
        if not reads_a and not reads_b:
            continue  # station-only coordinate: nothing to disagree on
        compared += 1
        if reads_a != reads_b:
            divergences.append(
                CellDivergence(
                    channel=channel,
                    slot=slot,
                    reads_a=reads_a,
                    reads_b=reads_b,
                    fate_a=cell_a.fate,
                    fate_b=cell_b.fate,
                )
            )
    return TimelineDiff(
        divergences=divergences,
        cells_compared=compared,
        walks_a=a.walks,
        walks_b=b.walks,
        mean_access_a=a.mean_access_time,
        mean_access_b=b.mean_access_time,
        mean_tuning_a=a.mean_tuning_time,
        mean_tuning_b=b.mean_tuning_time,
    )


def diff_trace_files(path_a: str, path_b: str) -> TimelineDiff:
    """Load and diff two JSONL traces."""
    return diff_timelines(load_timeline(path_a), load_timeline(path_b))


def format_timeline(
    timeline: Timeline,
    *,
    limit: int = 40,
    channel: int | None = None,
) -> str:
    """Human-readable per-slot table of one reconstructed timeline."""
    cells = timeline.ordered_cells()
    if channel is not None:
        cells = [cell for cell in cells if cell.channel == channel]
    shown = cells[:limit] if limit else cells
    lines = [
        f"{'ch':>3} {'slot':>6} {'fate':>8} {'aired':>6} {'reads':>6} "
        f"{'bad':>4} keys",
        "-" * 64,
    ]
    for cell in shown:
        bad = sum(
            count
            for (_, outcome), count in cell.read_counts.items()
            if outcome != "ok"
        )
        keys = sorted({key for key, _ in cell.read_counts})
        preview = ",".join(keys[:3]) + ("…" if len(keys) > 3 else "")
        lines.append(
            f"{cell.channel:>3} {cell.slot:>6} {cell.fate:>8} "
            f"{sum(cell.aired.values()):>6} {cell.total_reads:>6} "
            f"{bad:>4} {preview}"
        )
    if len(cells) > len(shown):
        lines.append(f"… {len(cells) - len(shown)} more cell(s)")
    lines.append(
        f"walks: {timeline.walks} ({timeline.abandoned} abandoned, "
        f"{timeline.retries} retries), mean access "
        f"{timeline.mean_access_time:.3f}, mean tuning "
        f"{timeline.mean_tuning_time:.3f}, replans {timeline.replans}"
    )
    return "\n".join(lines)


def format_diff(
    diff: TimelineDiff,
    *,
    label_a: str = "A",
    label_b: str = "B",
    limit: int = 10,
) -> str:
    """Human-readable verdict of one timeline diff."""
    lines = [
        f"{label_a}: {diff.walks_a} walk(s), mean access "
        f"{diff.mean_access_a:.4f}, mean tuning {diff.mean_tuning_a:.4f}",
        f"{label_b}: {diff.walks_b} walk(s), mean access "
        f"{diff.mean_access_b:.4f}, mean tuning {diff.mean_tuning_b:.4f}",
    ]
    if diff.identical:
        lines.append(
            f"identical read activity across {diff.cells_compared} "
            "slot cell(s)"
        )
        return "\n".join(lines)
    channel, slot = diff.first_divergence
    lines.append(
        f"first divergence: channel {channel}, slot {slot} "
        f"({len(diff.divergences)} divergent cell(s) of "
        f"{diff.cells_compared} compared)"
    )
    for divergence in diff.divergences[:limit]:
        lines.append("  " + divergence.describe(label_a, label_b))
    if len(diff.divergences) > limit:
        lines.append(f"  … {len(diff.divergences) - limit} more")
    return "\n".join(lines)

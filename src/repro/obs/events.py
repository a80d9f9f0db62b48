"""Typed trace events and the near-zero-overhead ``Tracer`` protocol.

Every component of the live path — the station airing frames, the tuner
fleet walking pointers, the serving loop replanning, the solvers
searching — can narrate what it is doing as a stream of small, typed,
JSON-able events. The stream is *opt-in*: every instrumented call site
holds a tracer and guards emission with a single attribute check::

    if tracer.enabled:
        tracer.emit(SlotAired(channel=2, absolute_slot=47, fate="lost"))

The default tracer is :data:`NULL_TRACER` (``enabled`` is ``False``),
so a caller that never asks for tracing pays one boolean read per
potential event and constructs nothing — the zero-overhead contract the
differential test in ``tests/obs/test_zero_overhead.py`` locks: with
tracing off, every measured number is bit-identical to a run without
the observability layer.

Collectors:

* :class:`NullTracer` — the free default; drops everything.
* :class:`RingBufferTracer` — bounded in-memory ring, oldest events
  evicted first (``dropped`` counts evictions); the in-process choice
  for tests and short diagnostics.
* :class:`JsonlTracer` — one JSON object per line to a file, with
  size-based rotation (``path`` → ``path.1`` → ``path.2`` …); the
  durable sink ``repro.cli obs timeline`` / ``obs diff`` reconstruct
  from.
* :class:`TeeTracer` — fan one stream out to several collectors.

Events carry *logical* coordinates (channel, absolute slot, keys,
node counts) — the quantities that are pure functions of the seeds —
while sinks stamp wall-clock ``ts`` at write time, so two traces of the
same seeded run differ only in timestamps and a timeline diff can
demand logical equality.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import ClassVar, Iterable, Iterator, Mapping, Protocol

__all__ = [
    "TraceEvent",
    "SlotAired",
    "SlotRead",
    "ChannelHop",
    "WalkFinished",
    "ReplanStarted",
    "ReplanFinished",
    "ScheduleActivated",
    "CutoverDetected",
    "SearchProgress",
    "FaultInjected",
    "PlannerDecision",
    "SpanFinished",
    "AlertFired",
    "RecorderTriggered",
    "EVENT_TYPES",
    "NO_WALK",
    "event_to_dict",
    "event_from_dict",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RingBufferTracer",
    "JsonlTracer",
    "TeeTracer",
]


# ---------------------------------------------------------------------------
# the event vocabulary
# ---------------------------------------------------------------------------

#: The ``walk`` id carried by :class:`SlotRead`/:class:`ChannelHop`/
#: :class:`WalkFinished` when no correlation id was assigned.
NO_WALK = -1


@dataclass(frozen=True, slots=True)
class SlotAired:
    """The station put (or would put) an airing on the air.

    ``fate`` is what the seeded channel did to it: ``"ok"``, ``"lost"``
    or ``"corrupt"``. Emitted once per *answered* airing, so a slot
    served to three listeners appears three times — the timeline
    reconstruction deduplicates by coordinate.
    """

    kind: ClassVar[str] = "slot_aired"
    channel: int
    absolute_slot: int
    fate: str = "ok"


@dataclass(frozen=True, slots=True)
class SlotRead:
    """One receiver spent tuning time on an airing.

    Emitted by the shared :class:`~repro.client.walk.PointerWalk` for
    every bucket a walk reads — live over a socket or replayed through
    the in-process simulator — which is what makes live and simulated
    traces of the same seeded workload directly diffable. ``outcome``
    is ``"ok"``, ``"lost"`` or ``"corrupt"`` as the *receiver* saw it.

    ``walk`` is the walk correlation id (see :data:`NO_WALK`): two
    concurrent walks for the same key interleave their events in a
    fleet trace, and the id is what lets
    :mod:`repro.obs.attrib` reassemble each walk exactly. ``-1`` means
    "unassigned" (old traces, callers that never set one) — consumers
    then fall back to grouping by key.
    """

    kind: ClassVar[str] = "slot_read"
    key: str
    channel: int
    absolute_slot: int
    outcome: str = "ok"
    walk: int = -1


@dataclass(frozen=True, slots=True)
class ChannelHop:
    """A walk re-tuned from one channel to another."""

    kind: ClassVar[str] = "channel_hop"
    key: str
    from_channel: int
    to_channel: int
    absolute_slot: int
    walk: int = -1


@dataclass(frozen=True, slots=True)
class WalkFinished:
    """One pointer walk completed (or gave up)."""

    kind: ClassVar[str] = "walk_finished"
    key: str
    tune_slot: int
    access_time: int
    tuning_time: int
    channel_switches: int
    retries: int = 0
    abandoned: bool = False
    walk: int = -1


@dataclass(frozen=True, slots=True)
class ReplanStarted:
    """The serving loop began rebuilding its plan after ``cycle``."""

    kind: ClassVar[str] = "replan_started"
    cycle: int


@dataclass(frozen=True, slots=True)
class ReplanFinished:
    """The rebuild finished; ``seconds`` is its wall-clock cost."""

    kind: ClassVar[str] = "replan_finished"
    cycle: int
    seconds: float


@dataclass(frozen=True, slots=True)
class ScheduleActivated:
    """A station scheduled a new plan version onto the air.

    Emitted at publish time by :meth:`repro.net.BroadcastStation.publish`
    (and mirrored by the store-backed serving paths): the new
    ``version`` takes over at ``activate_slot``, always a cycle boundary
    of the outgoing segment — the atomicity that lets in-flight walks
    recover by restart instead of reading a half-swapped cycle.
    """

    kind: ClassVar[str] = "schedule_activated"
    version: int
    activate_slot: int
    cycle_length: int
    note: str = ""


@dataclass(frozen=True, slots=True)
class CutoverDetected:
    """A walk noticed the air's schedule version change under it.

    Emitted by :class:`~repro.client.walk.PointerWalk` when a delivered
    envelope is stamped with a different version than the one the walk
    adopted: the pointers it was following belong to a retired plan, so
    it restarts from the root on the new version (accounted like a
    retry — the read still cost tuning time, and never as a corrupt
    bucket).
    """

    kind: ClassVar[str] = "cutover_detected"
    key: str
    from_version: int
    to_version: int
    absolute_slot: int
    walk: int = -1


@dataclass(frozen=True, slots=True)
class SearchProgress:
    """A long solve reporting effort while it runs.

    Emitted every few thousand expansions and once more with
    ``finished=True`` when the search returns, so an operator tailing a
    JSONL trace can watch a branch-and-bound converge instead of
    staring at a silent process.
    """

    kind: ClassVar[str] = "search_progress"
    mode: str
    nodes_expanded: int
    nodes_generated: int
    finished: bool = False


@dataclass(frozen=True, slots=True)
class FaultInjected:
    """The seeded fault model damaged an airing.

    ``absolute_slot`` is in *global air time* (the injector's origin
    plus the queried slot), so events from per-cycle shifted views of
    one injector land on one consistent axis.
    """

    kind: ClassVar[str] = "fault_injected"
    channel: int
    absolute_slot: int
    fate: str


@dataclass(frozen=True, slots=True)
class PlannerDecision:
    """The cost-model meta-planner chose a strategy for a catalog.

    Emitted by :func:`repro.approx.plan_meta` once per dispatch: the
    features it measured (catalog size, weight skew as Gini coefficient
    and normalised entropy), the registry ``method`` it picked, and the
    human-readable ``reason`` from the decision table. ``fell_back``
    records that the chosen method blew its search budget and the
    fallback heuristic served instead — the trace then shows *both*
    what the model wanted and what production got.
    """

    kind: ClassVar[str] = "planner_decision"
    method: str
    items: int
    channels: int
    gini: float
    entropy: float
    reason: str = ""
    fell_back: bool = False


@dataclass(frozen=True, slots=True)
class SpanFinished:
    """One causal span closed; the complete record of its lifetime.

    Spans are emitted *once*, at completion, by
    :class:`~repro.obs.spans.SpanTracer` — there is no separate begin
    event, because every field (including ``start_slot``) is known by
    the time the span ends and a single record keeps trace files
    replay-stable. ``trace_id`` groups one causal tree (a replan and
    everything it touched); ``parent_id`` is ``0`` for roots. Slots are
    logical air time, so durations are seed-deterministic; the
    inclusive convention (``end_slot - start_slot + 1``) matches the
    access-time arithmetic in :mod:`repro.obs.attrib`.

    ``attrs`` is a tuple of ``(key, value)`` pairs (dict-like input is
    normalised) so the event stays hashable and round-trips through
    JSON as a stable list of pairs.
    """

    kind: ClassVar[str] = "span_finished"
    trace_id: int
    span_id: int
    parent_id: int
    name: str
    start_slot: int
    end_slot: int
    component: str = ""
    attrs: tuple = ()

    def __post_init__(self) -> None:
        pairs = self.attrs
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        object.__setattr__(
            self, "attrs", tuple((str(k), v) for k, v in pairs)
        )

    @property
    def duration_slots(self) -> int:
        """Inclusive slot duration (one slot spans one slot)."""
        return self.end_slot - self.start_slot + 1


@dataclass(frozen=True, slots=True)
class AlertFired:
    """An SLO burn-rate window tripped (or recovered).

    Emitted by :class:`~repro.obs.slo.SLOWatchdog` whenever a spec's
    fast/slow burn windows both exceed their thresholds. ``state`` is
    ``"firing"`` or ``"resolved"``; ``value`` is the measured quantity
    and ``threshold`` the spec's objective, so the event alone tells an
    operator how far out of budget the system was.
    """

    kind: ClassVar[str] = "alert_fired"
    slo: str
    state: str
    value: float
    threshold: float
    window_slots: int = 0
    burn_rate: float = 0.0


@dataclass(frozen=True, slots=True)
class RecorderTriggered:
    """The flight recorder dumped a postmortem bundle.

    ``reason`` names the anomaly class (``"parity_failure"``,
    ``"unaccounted_frames"``, ``"abandoned_spike"``, ``"store_error"``,
    ``"alert"``, …) and ``detail`` carries the trigger's own words.
    ``bundle`` is the path the bundle was written to (empty when the
    recorder ran without a dump directory).
    """

    kind: ClassVar[str] = "recorder_triggered"
    reason: str
    detail: str = ""
    bundle: str = ""
    events: int = 0


TraceEvent = (
    SlotAired
    | SlotRead
    | ChannelHop
    | WalkFinished
    | ReplanStarted
    | ReplanFinished
    | ScheduleActivated
    | CutoverDetected
    | SearchProgress
    | FaultInjected
    | PlannerDecision
    | SpanFinished
    | AlertFired
    | RecorderTriggered
)

EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        SlotAired,
        SlotRead,
        ChannelHop,
        WalkFinished,
        ReplanStarted,
        ReplanFinished,
        ScheduleActivated,
        CutoverDetected,
        SearchProgress,
        FaultInjected,
        PlannerDecision,
        SpanFinished,
        AlertFired,
        RecorderTriggered,
    )
}


def event_to_dict(event: TraceEvent) -> dict:
    """Flat JSON-able form: the ``kind`` discriminator plus the fields."""
    record = {"kind": event.kind}
    record.update(asdict(event))
    return record


def event_from_dict(record: dict) -> TraceEvent:
    """Inverse of :func:`event_to_dict`; raises on unknown ``kind``.

    Extra keys (a sink's ``ts`` stamp, forward-compatible annotations)
    are ignored, so traces written by newer code still load.
    """
    kind = record.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in record.items() if k in names})


# ---------------------------------------------------------------------------
# tracers
# ---------------------------------------------------------------------------

class Tracer(Protocol):
    """What an instrumented call site needs: a flag and a sink.

    ``enabled`` must be cheap to read — it guards every emission — and
    stable for the lifetime of the tracer (call sites may cache it
    across a hot loop).
    """

    enabled: bool

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover
        ...


class NullTracer:
    """The free default: claims to be disabled, drops everything."""

    enabled = False
    __slots__ = ()

    def emit(self, event: TraceEvent) -> None:
        """Accept and discard (call sites normally never reach this)."""


NULL_TRACER = NullTracer()


class RingBufferTracer:
    """Keep the most recent ``capacity`` events in memory.

    ``dropped`` counts evictions, so a consumer knows whether the
    window it is looking at is complete.
    """

    enabled = True

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    @property
    def events(self) -> list[TraceEvent]:
        """The retained window, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0


class JsonlTracer:
    """Append events to a JSONL file, rotating on size.

    Each line is ``event_to_dict(event)`` plus a wall-clock ``ts``
    stamp — stamped **only when the record does not already carry
    one**: re-serializing a replayed trace (raw dicts straight from
    :func:`read_events`, or typed events whose dict kept its ``ts``)
    must preserve the original capture times, not clobber them with
    re-write time. ``stamp=False`` disables stamping entirely. When
    ``rotate_bytes`` is set and a write would push the current file
    past it, the file is rotated logrotate-style (``path`` → ``path.1``
    → … → ``path.keep``; the oldest is deleted) before the write, so
    ``path`` always holds the newest tail and no event is ever split
    across files.
    """

    enabled = True

    def __init__(
        self,
        path: str,
        *,
        rotate_bytes: int | None = None,
        keep: int = 3,
        stamp: bool = True,
    ) -> None:
        if rotate_bytes is not None and rotate_bytes < 1:
            raise ValueError("rotate_bytes must be >= 1 (or None)")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.path = path
        self.rotate_bytes = rotate_bytes
        self.keep = keep
        self.stamp = stamp
        self.emitted = 0
        self.rotations = 0
        self._handle = open(path, "a", encoding="utf-8")
        self._size = self._handle.tell()

    def emit(self, event) -> None:
        # Raw dicts (a replayed JSONL trace) pass through as-is so a
        # re-serialization round-trips byte-for-byte.
        record = dict(event) if isinstance(event, Mapping) else event_to_dict(event)
        if self.stamp and "ts" not in record:
            record["ts"] = time.time()
        line = json.dumps(record, separators=(",", ":")) + "\n"
        encoded = len(line)
        if (
            self.rotate_bytes is not None
            and self._size > 0
            and self._size + encoded > self.rotate_bytes
        ):
            self._rotate()
        self._handle.write(line)
        self._size += encoded
        self.emitted += 1

    def _rotate(self) -> None:
        self._handle.close()
        oldest = f"{self.path}.{self.keep}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.keep - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TeeTracer:
    """Fan one event stream out to several tracers.

    ``enabled`` is the OR of the members', so a tee of null tracers
    stays free at the call sites.
    """

    def __init__(self, *tracers: Tracer) -> None:
        self.tracers = tuple(tracers)
        self.enabled = any(t.enabled for t in self.tracers)

    def emit(self, event: TraceEvent) -> None:
        for tracer in self.tracers:
            if tracer.enabled:
                tracer.emit(event)


def read_events(path: str) -> Iterable[dict]:
    """Yield the raw JSON records of one JSONL trace file, in order."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)

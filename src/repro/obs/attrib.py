"""Per-walk latency attribution: *where* did the access time go?

The protocol measures access time as one number — slots from tune-in
through the data bucket — and the paper's objective (formula (1))
averages it. This module explains it instead: every walk's access time
decomposes **additively and exactly** into five phases,

``probe``
    slots from tune-in through reading the index root — the initial
    channel-1 probe, the doze to the next cycle, and the root read
    (equals the protocol's ``probe_wait`` on a lossless walk);
``descent``
    slots spent *reading* index and data buckets below the root;
``hop``
    doze slots crossing a channel switch (the wait between reading a
    pointer on one channel and its target airing on another);
``retry``
    every slot a fault cost — failed reads themselves, the doze to a
    lost bucket's next airing or back to the retry parent, and the
    unspent tail of an abandoned walk's deadline;
``slack``
    same-channel doze between successful reads below the root — dead
    air the index layout forces between a pointer and its target.

The decomposition is driven purely by the ``slot_read`` /
``walk_finished`` trace vocabulary of :mod:`repro.obs.events`, which
the one scalar walk, :class:`~repro.client.walk.PointerWalk`, emits
whichever driver feeds it (:func:`~repro.client.protocol.object_walk`,
:func:`~repro.client.protocol.recovering_walk`, the frame grid of
:func:`~repro.io.wire_client.wire_walk` or a socket tuner), so one
attributor serves live JSONL traces, ring buffers, and in-process runs
alike.

**Exactness invariant** — for every walk::

    probe + descent + hop + retry + slack == access_time

holds *bit-identically* against the measured record, by construction:
each read claims its preceding doze gap plus its own slot, the gaps
partition the walk's timeline, and an abandoned walk's trailing slots
(from its last read to the deadline) are charged to ``retry``. The
differential suite locks this across those drivers, under injected
loss, and for abandoned walks; :class:`WalkAttribution.exact` is the
per-walk check and the ``obs attrib`` CLI exits non-zero if any walk
violates it.

Walks are reassembled from interleaved fleet traces by the events'
``walk`` correlation id; events carrying :data:`~repro.obs.events.NO_WALK`
(old traces) fall back to per-key grouping, where ``walk_finished``
closes the key's active walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ReproError
from .digest import QuantileDigest
from .events import NO_WALK, SlotRead, TraceEvent, WalkFinished

__all__ = [
    "PHASES",
    "WalkAttribution",
    "AttributionError",
    "AttributionBuilder",
    "AttributionCollector",
    "attribute_events",
    "attribute_walk",
    "format_attribution",
]

#: Phase names, in timeline order. Every slot of every walk's access
#: time lands in exactly one.
PHASES = ("probe", "descent", "hop", "retry", "slack")

_OK = "ok"


class AttributionError(ReproError):
    """A trace could not be folded into exact per-walk phases."""


@dataclass(frozen=True)
class WalkAttribution:
    """One walk's access time, split into the five phases.

    ``walk`` is the correlation id (:data:`~repro.obs.events.NO_WALK`
    when the trace carried none); the measured fields (``access_time``,
    ``tuning_time``, ``abandoned``) are copied from the walk's
    ``walk_finished`` event for cross-checking.
    """

    key: str
    walk: int
    tune_slot: int
    access_time: int
    tuning_time: int
    abandoned: bool
    probe: int
    descent: int
    hop: int
    retry: int
    slack: int

    @property
    def phases(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in PHASES}

    @property
    def total(self) -> int:
        """Sum of the phases — must equal ``access_time`` exactly."""
        return self.probe + self.descent + self.hop + self.retry + self.slack

    @property
    def exact(self) -> bool:
        """The exactness invariant: phases partition the access time."""
        return self.total == self.access_time


class AttributionBuilder:
    """Streaming fold of one walk's reads into its phase breakdown.

    Feed the walk's events in order (:meth:`on_read` for each
    ``slot_read``, then :meth:`finish` with the ``walk_finished``
    figures); state is O(1) — no event list is retained — so a
    million-walk trace attributes in constant memory per in-flight
    walk.
    """

    __slots__ = (
        "key",
        "walk",
        "tune_slot",
        "reads",
        "probe",
        "descent",
        "hop",
        "retry",
        "slack",
        "_prev_slot",
        "_prev_channel",
        "_prev_failed",
        "_ok_reads",
    )

    def __init__(self, key: str, walk: int = NO_WALK) -> None:
        self.key = key
        self.walk = walk
        self.tune_slot: int | None = None
        self.reads = 0
        self.probe = 0
        self.descent = 0
        self.hop = 0
        self.retry = 0
        self.slack = 0
        self._prev_slot = 0
        self._prev_channel = 1
        self._prev_failed = False
        self._ok_reads = 0

    def on_read(self, channel: int, absolute_slot: int, outcome: str) -> None:
        """Fold one read: its doze gap, then the read slot itself.

        The gap since the previous read is charged to the phase that
        *caused* the doze — recovery if the previous read failed, probe
        while still waiting for the root, hop across a channel switch,
        slack otherwise — and the read slot goes to retry (failed),
        probe (the first two successful reads: initial probe and index
        root) or descent (everything below the root).
        """
        if self.tune_slot is None:
            # The first read *is* the tune-in: every walk path starts by
            # reading channel 1 at its tune slot.
            self.tune_slot = absolute_slot
            self._prev_slot = absolute_slot - 1
        gap = absolute_slot - self._prev_slot - 1
        if gap < 0:
            raise AttributionError(
                f"walk {self.walk} ({self.key!r}): reads out of order at "
                f"absolute slot {absolute_slot}"
            )
        if gap:
            if self._prev_failed:
                self.retry += gap
            elif self._ok_reads < 2:
                self.probe += gap
            elif channel != self._prev_channel:
                self.hop += gap
            else:
                self.slack += gap
        failed = outcome != _OK
        if failed:
            self.retry += 1
        elif self._ok_reads < 2:
            self.probe += 1
            self._ok_reads += 1
        else:
            self.descent += 1
            self._ok_reads += 1
        self.reads += 1
        self._prev_slot = absolute_slot
        self._prev_channel = channel
        self._prev_failed = failed

    def finish(
        self,
        *,
        tune_slot: int,
        access_time: int,
        tuning_time: int,
        abandoned: bool,
    ) -> WalkAttribution:
        """Close the walk against its measured ``walk_finished`` figures.

        Charges an abandoned walk's unread tail (last read through the
        deadline) to ``retry`` and cross-checks the trace's internal
        consistency: the first read must sit at the measured tune slot
        and the read count must equal the measured tuning time.
        """
        if self.tune_slot is None or self.tune_slot != tune_slot:
            raise AttributionError(
                f"walk {self.walk} ({self.key!r}): finished at tune slot "
                f"{tune_slot} but its first read was at {self.tune_slot}"
            )
        if self.reads != tuning_time:
            raise AttributionError(
                f"walk {self.walk} ({self.key!r}): {self.reads} traced "
                f"reads but measured tuning time {tuning_time}"
            )
        final = tune_slot + access_time - 1
        trailing = final - self._prev_slot
        if trailing < 0:
            raise AttributionError(
                f"walk {self.walk} ({self.key!r}): last read at "
                f"{self._prev_slot} lies past the measured end {final}"
            )
        if trailing:
            # Only a walk that gave up stops short of its final slot.
            self.retry += trailing
        return WalkAttribution(
            key=self.key,
            walk=self.walk,
            tune_slot=tune_slot,
            access_time=access_time,
            tuning_time=tuning_time,
            abandoned=abandoned,
            probe=self.probe,
            descent=self.descent,
            hop=self.hop,
            retry=self.retry,
            slack=self.slack,
        )


def attribute_walk(
    reads: list[tuple[int, int, str]],
    *,
    key: str = "",
    walk: int = NO_WALK,
    access_time: int,
    tuning_time: int,
    abandoned: bool = False,
) -> WalkAttribution:
    """Attribute one walk given its ``(channel, absolute_slot, outcome)`` reads."""
    builder = AttributionBuilder(key, walk)
    for channel, absolute_slot, outcome in reads:
        builder.on_read(channel, absolute_slot, outcome)
    if builder.tune_slot is None:
        raise AttributionError("a walk with no reads cannot be attributed")
    return builder.finish(
        tune_slot=builder.tune_slot,
        access_time=access_time,
        tuning_time=tuning_time,
        abandoned=abandoned,
    )


class _GroupState:
    """Routes interleaved events to per-walk builders."""

    __slots__ = ("by_walk", "by_key")

    def __init__(self) -> None:
        self.by_walk: dict[int, AttributionBuilder] = {}
        self.by_key: dict[str, AttributionBuilder] = {}

    def builder(self, key: str, walk: int) -> AttributionBuilder:
        if walk != NO_WALK:
            found = self.by_walk.get(walk)
            if found is None:
                found = self.by_walk[walk] = AttributionBuilder(key, walk)
            return found
        found = self.by_key.get(key)
        if found is None:
            found = self.by_key[key] = AttributionBuilder(key)
        return found

    def close(self, key: str, walk: int) -> AttributionBuilder | None:
        if walk != NO_WALK:
            return self.by_walk.pop(walk, None)
        return self.by_key.pop(key, None)

    def open_walks(self) -> int:
        return len(self.by_walk) + len(self.by_key)


def attribute_events(events) -> list[WalkAttribution]:
    """Fold a trace into per-walk attributions, in completion order.

    ``events`` may yield raw JSONL records (dicts, as
    :func:`~repro.obs.events.read_events` streams them) or typed
    :class:`~repro.obs.events.TraceEvent` objects (a ring buffer's
    window) — the fold is streaming either way and retains only the
    in-flight walks' O(1) builders. Events of other kinds (airings,
    replans, fault narration) pass through untouched; walks still open
    when the trace ends (a truncated file, a live tail) are dropped,
    since without ``walk_finished`` there is no measured number to be
    exact against.
    """
    state = _GroupState()
    finished: list[WalkAttribution] = []
    for event in events:
        if isinstance(event, dict):
            kind = event.get("kind")
            get = event.get
        else:
            kind = event.kind
            get = lambda name, default=None: getattr(event, name, default)  # noqa: E731
        if kind == "slot_read":
            walk = get("walk", NO_WALK)
            state.builder(get("key"), walk).on_read(
                get("channel"), get("absolute_slot"), get("outcome", _OK)
            )
        elif kind == "walk_finished":
            builder = state.close(get("key"), get("walk", NO_WALK))
            if builder is None:
                raise AttributionError(
                    f"walk_finished for {get('key')!r} without any reads"
                )
            finished.append(
                builder.finish(
                    tune_slot=get("tune_slot"),
                    access_time=get("access_time"),
                    tuning_time=get("tuning_time"),
                    abandoned=bool(get("abandoned", False)),
                )
            )
    return finished


class AttributionCollector:
    """A :class:`~repro.obs.events.Tracer` that attributes walks live.

    Tee it alongside (or instead of) a recording tracer and every
    completed walk lands in :attr:`walks` as a
    :class:`WalkAttribution`; when a
    :class:`~repro.obs.metrics.MetricsRegistry` is supplied, each
    completed walk also feeds the fleet's quantile summaries —
    ``repro_walk_access_time_slots``, ``repro_walk_tuning_time_reads``
    and one ``repro_walk_phase_<phase>_slots`` per phase — plus the
    ``repro_walk_completed_total`` / ``repro_walk_abandoned_total``
    counters. Abandoned walks are counted but kept out of the latency
    summaries, matching how the harness keeps them out of its means.

    The collector only *observes* trace events; it never touches the
    walk's own state, so enabling it cannot change a measured number —
    the zero-overhead differential in the test suite locks exactly
    that.
    """

    enabled = True

    def __init__(self, registry=None, *, labels=None) -> None:
        self.registry = registry
        self.labels = dict(labels) if labels else None
        self.walks: list[WalkAttribution] = []
        self._state = _GroupState()
        if registry is not None:
            # Declare the full vocabulary up front so an idle scrape
            # already exposes every series. ``labels`` scope every
            # series to one child of its family — the cluster layer
            # runs one collector per shard with
            # ``labels={"shard": "2"}`` and the summaries stay apart.
            registry.summary(
                "repro_walk_access_time_slots",
                "access time per completed walk (slots)",
                labels=self.labels,
            )
            registry.summary(
                "repro_walk_tuning_time_reads",
                "tuning time per completed walk (bucket reads)",
                labels=self.labels,
            )
            for phase in PHASES:
                registry.summary(
                    f"repro_walk_phase_{phase}_slots",
                    f"slots attributed to the {phase} phase per completed walk",
                    labels=self.labels,
                )
            registry.counter(
                "repro_walk_completed_total",
                "walks that reached their data",
                labels=self.labels,
            )
            registry.counter(
                "repro_walk_abandoned_total",
                "walks that hit the give-up bound",
                labels=self.labels,
            )

    def emit(self, event: TraceEvent) -> None:
        if isinstance(event, SlotRead):
            self._state.builder(event.key, event.walk).on_read(
                event.channel, event.absolute_slot, event.outcome
            )
        elif isinstance(event, WalkFinished):
            builder = self._state.close(event.key, event.walk)
            if builder is None:
                raise AttributionError(
                    f"walk_finished for {event.key!r} without any reads"
                )
            attribution = builder.finish(
                tune_slot=event.tune_slot,
                access_time=event.access_time,
                tuning_time=event.tuning_time,
                abandoned=event.abandoned,
            )
            self.walks.append(attribution)
            if self.registry is not None:
                self._feed(attribution)

    def _feed(self, attribution: WalkAttribution) -> None:
        registry = self.registry
        labels = self.labels
        if attribution.abandoned:
            registry.counter(
                "repro_walk_abandoned_total", labels=labels
            ).inc()
            return
        registry.counter("repro_walk_completed_total", labels=labels).inc()
        registry.summary(
            "repro_walk_access_time_slots", labels=labels
        ).observe(attribution.access_time)
        registry.summary(
            "repro_walk_tuning_time_reads", labels=labels
        ).observe(attribution.tuning_time)
        for phase in PHASES:
            registry.summary(
                f"repro_walk_phase_{phase}_slots", labels=labels
            ).observe(getattr(attribution, phase))


def format_attribution(
    attributions: list[WalkAttribution], *, slowest: int = 5
) -> str:
    """Human-readable phase table for one trace's attributions.

    One row per phase with its fleet-wide total, share of all access
    time, per-walk mean and deterministic p50/p95/p99 (via
    :class:`~repro.obs.digest.QuantileDigest`), a totals row asserting
    the exactness invariant, and the ``slowest`` walks broken down
    individually — the "why was *this* one slow" view.
    """
    completed = [a for a in attributions if not a.abandoned]
    abandoned = len(attributions) - len(completed)
    lines: list[str] = []
    header = (
        f"{'phase':<10} {'slots':>10} {'share':>7} {'mean':>8} "
        f"{'p50':>6} {'p95':>6} {'p99':>6}"
    )
    lines.append(
        f"{len(attributions)} walks attributed "
        f"({len(completed)} completed, {abandoned} abandoned)"
    )
    lines.append(header)
    lines.append("-" * len(header))
    grand_total = sum(a.access_time for a in completed)
    for phase in PHASES:
        values = [getattr(a, phase) for a in completed]
        total = sum(values)
        digest = QuantileDigest()
        digest.observe_many(values)
        share = 100.0 * total / grand_total if grand_total else 0.0
        mean = total / len(values) if values else 0.0
        p50, p95, p99 = digest.quantiles((0.5, 0.95, 0.99))
        lines.append(
            f"{phase:<10} {total:>10} {share:>6.1f}% {mean:>8.2f} "
            f"{p50:>6} {p95:>6} {p99:>6}"
        )
    lines.append("-" * len(header))
    exact = all(a.exact for a in attributions)
    lines.append(
        f"{'total':<10} {grand_total:>10} {'100.0%' if grand_total else '0.0%':>7}"
        f"   exactness: {'ok' if exact else 'VIOLATED'}"
    )
    ranked = sorted(completed, key=lambda a: a.access_time, reverse=True)
    if ranked and slowest > 0:
        lines.append("")
        lines.append(f"slowest {min(slowest, len(ranked))} walks:")
        for a in ranked[:slowest]:
            walk_tag = f"#{a.walk}" if a.walk != NO_WALK else "-"
            breakdown = " ".join(
                f"{phase}={getattr(a, phase)}"
                for phase in PHASES
                if getattr(a, phase)
            )
            lines.append(
                f"  {walk_tag:>6} {a.key:<8} access={a.access_time:<5} "
                f"{breakdown}"
            )
    return "\n".join(lines)

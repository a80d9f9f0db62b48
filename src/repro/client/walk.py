"""The sans-io pointer-walk state machine: the one scalar client walk.

Every scalar receiver walks the broadcast through :class:`PointerWalk`:
the in-process frame client (:func:`repro.io.wire_client.wire_walk`),
the asyncio tuner of :mod:`repro.net` listening over real sockets, and
the object-level :func:`repro.client.protocol.object_walk` /
:func:`~repro.client.protocol.recovering_walk`, which feed it buckets
straight from a compiled program. The walk is the paper's protocol
(§2.1): probe channel 1, follow the next-cycle pointer to the root,
route down the index by key comparison, and recover from lost or
corrupt airings per :class:`RecoveryPolicy`.

The machine never reads a socket or an array, in the sans-io style
network protocol stacks use. It tells its driver what to tune to next
(:meth:`next_listen` → a :class:`Listen` naming a channel and an
absolute slot), the driver obtains that airing however it likes —
indexing a frame grid, awaiting a datagram — and feeds back either the
decoded bucket (:meth:`deliver`) or the fact of its loss
(:meth:`on_loss`). When :meth:`next_listen` returns ``None`` the walk is
over and :attr:`result` holds the measured :class:`WalkResult`.

Because every driver shares this accounting, a lossless walk measures
the same access time, probe wait, data wait, tuning time and channel
switches whichever way its buckets arrive — the invariant that lets the
:mod:`repro.net` loopback parity gate compare a live socket fleet
against the in-process simulator and demand equality, not closeness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ReproError
from ..io.wire import DecodedBucket, DecodedPointer, WireFormatError
from ..obs.events import (
    NO_WALK,
    NULL_TRACER,
    ChannelHop,
    CutoverDetected,
    SlotRead,
    Tracer,
    WalkFinished,
)
from ..obs.spans import NO_TRACE, TraceContext, span_tracer_of

__all__ = [
    "Listen",
    "WalkResult",
    "LookupFailed",
    "PointerWalk",
    "RecoveryPolicy",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """What a client does when a tuned-to bucket is lost or corrupt.

    Attributes
    ----------
    mode:
        ``"retry-parent"`` — re-tune to the last successfully read index
        node at its next airing and walk down from there (the client
        distrusts its cached pointer after channel trouble);
        ``"next-cycle"`` — keep the cached pointer and simply wait for
        the lost bucket's next airing, one cycle later (cheapest in
        tuning, a full cycle in access time per loss).
    max_cycles:
        Give-up bound: the walk abandons once it would have to read past
        this many cycles from tune-in. Must be at least 2 — a lossless
        walk needs two cycles (probe cycle + index cycle), so smaller
        values would abandon requests no loss ever touched.
    cutover:
        What a frame-level walk does when a delivered envelope is
        stamped with a *different* schedule version than the one it
        adopted (the station replanned mid-walk — see
        :mod:`repro.sched`). ``"restart-root"`` (default) re-probes
        channel 1 from the very next slot and descends the *new*
        version's index — accounted like a retry, never as a corrupt
        read. ``"abandon"`` gives the walk up instead (for clients that
        would rather fail fast than pay the restart).
    """

    mode: str = "retry-parent"
    max_cycles: int = 8
    cutover: str = "restart-root"

    def __post_init__(self) -> None:
        if self.mode not in ("retry-parent", "next-cycle"):
            raise ValueError(
                f"unknown recovery mode {self.mode!r}; expected "
                "'retry-parent' or 'next-cycle'"
            )
        if self.max_cycles < 2:
            raise ValueError("max_cycles must be >= 2 (a lossless walk "
                             "spans two cycles)")
        if self.cutover not in ("restart-root", "abandon"):
            raise ValueError(
                f"unknown cutover outcome {self.cutover!r}; expected "
                "'restart-root' or 'abandon'"
            )


class LookupFailed(ReproError):
    """The key routed to a data bucket that does not carry it."""


@dataclass(frozen=True)
class Listen:
    """One tuning instruction: wake up and read this airing.

    ``absolute_slot`` counts slots from the start of the cycle the walk
    tuned into (1-based, so the tune-in slot itself is ``tune_slot``);
    the broadcast is cyclic, so the airing's content is the bucket at
    cycle-relative slot ``(absolute_slot - 1) % cycle + 1``.
    """

    channel: int
    absolute_slot: int


@dataclass(frozen=True)
class WalkResult:
    """Measured outcome of one key-routed walk.

    Field meanings match :class:`~repro.client.protocol.AccessRecord` /
    :class:`~repro.client.protocol.RecoveredAccessRecord` (``key``
    replaces ``target``: a frame-level client knows search keys, not
    node objects). ``payload`` is the data bucket's delivered bytes —
    empty when the walk was abandoned.
    """

    key: str
    tune_slot: int
    access_time: int
    probe_wait: int
    data_wait: int
    tuning_time: int
    channel_switches: int
    lost_buckets: int = 0
    corrupt_buckets: int = 0
    retries: int = 0
    wasted_probes: int = 0
    cycles_spent: int = 1
    abandoned: bool = False
    #: Mid-walk schedule cutovers survived (each also counts a retry).
    cutovers: int = 0
    payload: bytes = b""


_PROBE = "probe"
_DESCEND = "descend"
_DONE = "done"


class PointerWalk:
    """Sans-io protocol walk: probe, descend by key, recover on loss.

    Parameters
    ----------
    key:
        Search key of the requested item (an alphabetic index tree is a
        search tree, so pointer-table ``key_hi`` separators route it).
    tune_slot:
        Cycle-relative slot (1..cycle_length) at which the client tunes
        into channel 1.
    cycle_length:
        Slots per broadcast cycle (from the station's welcome metadata
        or the frame grid's row length).
    policy:
        Loss-recovery behaviour; default
        :class:`RecoveryPolicy` (retry-parent,
        give up after 8 cycles).
    tracer:
        Optional :class:`~repro.obs.events.Tracer`; when enabled the
        walk narrates every read (:class:`~repro.obs.events.SlotRead`),
        every re-tune (:class:`~repro.obs.events.ChannelHop`) and its
        completion (:class:`~repro.obs.events.WalkFinished`). The
        default no-op tracer costs one boolean check per read and never
        alters the walk's measured numbers.
    walk_id:
        Optional correlation id stamped into every emitted event's
        ``walk`` field, so a concurrent fleet's interleaved trace can be
        reassembled per walk (:mod:`repro.obs.attrib`). ``None`` leaves
        the events at :data:`~repro.obs.events.NO_WALK`.

    Drive it as::

        walk = PointerWalk(key, tune_slot, cycle)
        while (listen := walk.next_listen()) is not None:
            bucket = ...read the airing listen names...
            walk.deliver(bucket)        # or walk.on_loss(...)
        record = walk.result
    """

    def __init__(
        self,
        key: str,
        tune_slot: int,
        cycle_length: int,
        *,
        policy: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        walk_id: int | None = None,
    ) -> None:
        if cycle_length < 1:
            raise ValueError("cycle_length must be >= 1")
        if not 1 <= tune_slot <= cycle_length:
            raise ValueError(f"tune_slot must be in 1..{cycle_length}")
        self.key = key
        self.tune_slot = tune_slot
        self.cycle = cycle_length
        self.policy = policy if policy is not None else RecoveryPolicy()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.walk_id = NO_WALK if walk_id is None else walk_id
        self._deadline = self.policy.max_cycles * cycle_length

        self._state = _PROBE
        self._listen: Listen | None = Listen(1, tune_slot)
        self._current_channel = 1
        self._tuning = 0
        self._switches = 0
        self._lost = 0
        self._corrupt = 0
        self._retries = 0
        self._cutovers = 0
        self._probe_wait = 0
        self._depth = 0
        #: Schedule version this walk adopted from the air (``None``
        #: until the first versioned envelope arrives; drivers on
        #: unversioned transports never touch it).
        self.version: int | None = None
        # Causal-span state: only walks driven through a span-capable
        # tracer (and an enabled sink) pay anything here — everyone
        # else carries a single None.
        self._spans = (
            span_tracer_of(self._tracer) if self._tracer.enabled else None
        )
        self._wire_trace: TraceContext = NO_TRACE
        self._segment_trace: TraceContext = NO_TRACE
        self._segment_start = tune_slot
        self._segment_index = 0
        # Successfully read index hops (depth, channel, cycle-relative
        # slot) — the resume points of the "retry-parent" policy.
        self._good: list[tuple[int, int, int]] = []
        self._result: WalkResult | None = None

    # -- driver-facing surface ---------------------------------------------
    @property
    def done(self) -> bool:
        return self._state == _DONE

    @property
    def result(self) -> WalkResult:
        if self._result is None:
            raise ReproError("walk is not finished; keep driving next_listen()")
        return self._result

    @property
    def depth(self) -> int | None:
        """Index depth of the pending read (0 = root); ``None`` while probing."""
        return None if self._state == _PROBE else self._depth

    def next_listen(self) -> Listen | None:
        """The airing to read next, or ``None`` once the walk finished."""
        return self._listen

    def deliver(self, bucket: DecodedBucket) -> None:
        """Feed the successfully decoded bucket of the pending listen."""
        listen = self._require_listen()
        if self._spans is not None:
            self._adopt_segment_trace()
        self._register_read(listen, "ok")
        if self._state == _PROBE:
            self._probe_delivered(listen, bucket)
        else:
            self._descend_delivered(listen, bucket)

    def on_loss(self, *, corrupt: bool = False) -> None:
        """The pending listen's airing was lost (or failed its checksum).

        The client was awake for the slot either way, so the read still
        costs tuning time; recovery then follows the policy — a lost
        channel-1 probe just keeps listening (the very next slot also
        carries a next-cycle pointer), a lost index/data bucket either
        waits for its next airing one cycle later (``next-cycle``, and
        always for the root, which has no parent to retry) or re-tunes
        to the deepest successfully read index node (``retry-parent``).
        """
        listen = self._require_listen()
        if self._spans is not None:
            self._adopt_segment_trace()
        self._register_read(listen, "corrupt" if corrupt else "lost")
        self._retries += 1
        if corrupt:
            self._corrupt += 1
        else:
            self._lost += 1
        if self._state == _PROBE:
            self._schedule(1, listen.absolute_slot + 1)
        elif self.policy.mode == "next-cycle" or not self._good:
            self._schedule(listen.channel, listen.absolute_slot + self.cycle)
        else:
            self._depth, channel, rel_slot = self._good.pop()
            self._schedule(
                channel, _next_airing(rel_slot, listen.absolute_slot, self.cycle)
            )

    def observe_trace(self, trace_id: int, span_id: int) -> None:
        """Feed the pending envelope's wire trace context, if any.

        Call *before* :meth:`observe_version` with the
        :class:`~repro.io.wire.AirFrame`'s ``trace_id``/``span_id``
        (zeros — an untraced transport — are free and ignored). The
        context names the publish span that put the current schedule
        on the air; each walk *segment* (the stretch between cutovers)
        parents its span onto the context it ran under, which is what
        links a station cutover to every walk it restarted.
        """
        if self._spans is None:
            return
        # Zeros overwrite too: an untraced frame means the *current*
        # schedule has no publish span, and a later segment must not
        # inherit a stale context from a retired one.
        self._wire_trace = TraceContext(trace_id, span_id)

    def observe_version(self, version: int) -> bool:
        """Feed the pending envelope's schedule-version stamp.

        Call *before* :meth:`deliver`/:meth:`on_loss` with the
        :class:`~repro.io.wire.AirFrame`'s ``schedule_version``. A zero
        (unversioned transport) is ignored; the first positive version
        is adopted as the walk's own. A *different* positive version is
        a mid-walk cutover: the walk consumes the pending read through
        :meth:`on_cutover` and returns ``True`` — the driver must then
        skip its normal deliver/loss handling for this airing and go
        back to :meth:`next_listen`.
        """
        if version <= 0:
            return False
        if self.version is None or version == self.version:
            self.version = version
            return False
        self.on_cutover(version)
        return True

    def on_cutover(self, new_version: int | None = None) -> None:
        """The pending airing was stamped with a new schedule version.

        The station replanned and the cutover's cycle boundary passed
        between this walk's reads: every pointer it holds (the
        ``_good`` resume stack included) belongs to a retired plan.
        Per ``policy.cutover`` the walk either restarts from the root —
        re-probe channel 1 at the very next slot and descend the new
        version's index — or abandons. Either way the read that
        revealed the cutover is registered (the client was awake for
        it, so it costs tuning time and keeps frame accounting exact)
        and counted like a retry, never as a corrupt bucket.
        """
        listen = self._require_listen()
        self._register_read(listen, "cutover")
        self._retries += 1
        self._cutovers += 1
        previous = self.version if self.version is not None else 0
        if new_version is not None:
            self.version = new_version
        if self._tracer.enabled:
            self._tracer.emit(
                CutoverDetected(
                    key=self.key,
                    from_version=previous,
                    to_version=self.version if self.version is not None else 0,
                    absolute_slot=listen.absolute_slot,
                    walk=self.walk_id,
                )
            )
        if self.policy.cutover == "abandon":
            self._finish(listen.absolute_slot, abandoned=True)
            return
        if self._spans is not None:
            # The revealing read belongs to the segment it ended; the
            # next segment runs under — and parents onto — the new
            # schedule's publish span, which this frame just carried.
            self._close_segment(listen.absolute_slot)
            self._segment_start = listen.absolute_slot + 1
            self._segment_index += 1
            self._segment_trace = self._wire_trace
        self._state = _PROBE
        self._depth = 0
        self._good.clear()
        self._schedule(1, listen.absolute_slot + 1)

    # -- internals ----------------------------------------------------------
    def _adopt_segment_trace(self) -> None:
        """Bind the current segment to the first wire context it reads."""
        if not self._segment_trace.present and self._wire_trace.present:
            self._segment_trace = self._wire_trace

    def _close_segment(self, end_slot: int) -> None:
        """Emit the span of the segment ending at ``end_slot``, if traced.

        Segments tile the walk exactly — ``[tune_slot .. cutover₁]``,
        ``[cutover₁+1 .. cutover₂]``, …, ``[cutoverₖ+1 .. final]`` —
        so their inclusive durations sum to the walk's access time,
        the invariant :func:`repro.obs.spans.reconcile_with_attrib`
        tests against :mod:`repro.obs.attrib`. A segment that ran
        under an untraced schedule (the bootstrap program) still
        emits, rooted in its own fresh trace, so the tiling holds.
        """
        if self._spans is None:
            return
        self._spans.finish(
            name="walk.restart" if self._segment_index else "walk.run",
            trace_id=self._segment_trace.trace_id,
            parent_id=self._segment_trace.span_id,
            start_slot=self._segment_start,
            end_slot=end_slot,
            component="walk",
            attrs=(
                ("walk", self.walk_id),
                ("key", self.key),
                ("segment", self._segment_index),
            ),
        )

    def _require_listen(self) -> Listen:
        if self._listen is None:
            raise ReproError("walk already finished; nothing is listening")
        return self._listen

    def _register_read(self, listen: Listen, outcome: str) -> None:
        self._tuning += 1
        hopped = listen.channel != self._current_channel
        if hopped:
            self._switches += 1
        if self._tracer.enabled:
            self._tracer.emit(
                SlotRead(
                    key=self.key,
                    channel=listen.channel,
                    absolute_slot=listen.absolute_slot,
                    outcome=outcome,
                    walk=self.walk_id,
                )
            )
            if hopped:
                self._tracer.emit(
                    ChannelHop(
                        key=self.key,
                        from_channel=self._current_channel,
                        to_channel=listen.channel,
                        absolute_slot=listen.absolute_slot,
                        walk=self.walk_id,
                    )
                )
        if hopped:
            self._current_channel = listen.channel

    def _schedule(self, channel: int, absolute: int) -> None:
        """Queue the next read, abandoning if it lies past the deadline."""
        if absolute > self._deadline:
            self._finish(self._deadline, abandoned=True)
        else:
            self._listen = Listen(channel, absolute)

    def _probe_delivered(self, listen: Listen, bucket: DecodedBucket) -> None:
        if bucket.next_cycle_offset <= 0:
            raise WireFormatError("channel-1 frame lacks a next-cycle pointer")
        # The offset names the root airing of the cycle after the
        # probe's; the root always airs on channel 1 (§3.1 rule).
        self._state = _DESCEND
        self._depth = 0
        self._schedule(1, listen.absolute_slot + bucket.next_cycle_offset)

    def _descend_delivered(self, listen: Listen, bucket: DecodedBucket) -> None:
        if bucket.kind == "empty":
            if self._depth == 0:
                raise WireFormatError(
                    "next-cycle pointer landed off the index root"
                )
            raise WireFormatError("pointer landed on an empty bucket")
        if self._depth == 0:
            if bucket.kind != "index":
                raise WireFormatError(
                    "next-cycle pointer landed off the index root"
                )
            if self._probe_wait == 0:
                self._probe_wait = listen.absolute_slot - self.tune_slot + 1
        if bucket.kind == "data":
            if bucket.label != self.key and not bucket.label.startswith(
                self.key
            ):
                raise LookupFailed(
                    f"lookup for {self.key!r} ended at {bucket.label!r}"
                )
            self._finish(
                listen.absolute_slot, abandoned=False, payload=bucket.payload
            )
            return
        pointer = self._route(bucket)
        if pointer.offset <= 0:
            raise WireFormatError(
                f"non-positive pointer offset {pointer.offset} in index "
                f"bucket {bucket.label!r}"
            )
        self._good.append(
            (self._depth, listen.channel, _relative(listen.absolute_slot, self.cycle))
        )
        self._depth += 1
        self._schedule(pointer.channel, listen.absolute_slot + pointer.offset)

    def _route(self, bucket: DecodedBucket) -> DecodedPointer:
        """Pick the child pointer whose key range covers :attr:`key`.

        ``key_hi`` separators are the max key of each child's subtree;
        the first pointer with ``key <= key_hi`` covers the key. Falls
        off the end to the last pointer (keys above the maximum cannot
        exist, but a search must land somewhere to discover that).
        """
        for pointer in bucket.pointers:
            if self.key <= pointer.key_hi:
                return pointer
        if not bucket.pointers:
            raise WireFormatError(
                f"index bucket {bucket.label!r} has no pointers"
            )
        return bucket.pointers[-1]

    def _finish(
        self, final_absolute: int, *, abandoned: bool, payload: bytes = b""
    ) -> None:
        # ``wasted_probes``: reads beyond the lossless walk's — probe +
        # one read per index level + the data read. An abandoned walk
        # wasted everything it read.
        clean_reads = self._depth + 2
        self._result = WalkResult(
            key=self.key,
            tune_slot=self.tune_slot,
            access_time=final_absolute - self.tune_slot + 1,
            probe_wait=self._probe_wait,
            data_wait=final_absolute - self.cycle,
            tuning_time=self._tuning,
            channel_switches=self._switches,
            lost_buckets=self._lost,
            corrupt_buckets=self._corrupt,
            retries=self._retries,
            wasted_probes=(
                self._tuning if abandoned else self._tuning - clean_reads
            ),
            cycles_spent=(final_absolute - 1) // self.cycle + 1,
            abandoned=abandoned,
            cutovers=self._cutovers,
            payload=payload,
        )
        self._state = _DONE
        self._listen = None
        if self._spans is not None:
            self._close_segment(final_absolute)
        if self._tracer.enabled:
            self._tracer.emit(
                WalkFinished(
                    key=self.key,
                    tune_slot=self.tune_slot,
                    access_time=self._result.access_time,
                    tuning_time=self._result.tuning_time,
                    channel_switches=self._result.channel_switches,
                    retries=self._result.retries,
                    abandoned=abandoned,
                    walk=self.walk_id,
                )
            )


def _next_airing(slot: int, after: int, cycle: int) -> int:
    """First absolute time strictly after ``after`` when ``slot`` airs.

    ``slot`` is cycle-relative (1-based); the broadcast repeats, so the
    bucket airs at ``slot + j·cycle`` for every ``j ≥ 0``.
    """
    airing = after + (slot - after) % cycle
    return airing if airing > after else airing + cycle


def _relative(absolute: int, cycle: int) -> int:
    """Cycle-relative slot (1-based) of 1-based absolute slot."""
    return (absolute - 1) % cycle + 1

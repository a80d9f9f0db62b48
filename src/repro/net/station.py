"""The asyncio broadcast station: a compiled plan, actually on air.

The station takes a pointer-wired
:class:`~repro.broadcast.pointers.BroadcastProgram` (usually via
:meth:`repro.planners.PlanResult.compile` or
:meth:`repro.server.BroadcastServer.station`), encodes it to version-1
wire frames once, and airs it cyclically on a
:class:`~repro.net.clock.SlotClock` — one frame per channel per slot
tick — over a TCP fan-out. Clients connect, receive a one-line JSON
``WELCOME`` (cycle length, channel count, bucket size, slot duration),
then send ``LISTEN <channel> <absolute-slot>`` control lines — one per
bucket the pointer walk names; the station answers each with that
airing's envelope (:class:`repro.io.wire.AirFrame`) once the slot clock
reaches it. A client that listens to nothing receives nothing: dozing
costs the station no bandwidth, exactly the energy model of §2.1. Each
connection is one :class:`asyncio.Protocol` that answers its requests
in order inside the socket callback; its reading pauses while its
request FIFO or its write buffer is full, so a slow client
backpressures its own socket and nobody else's.

Unreliable air is simulated *at the station*, from the same seeded
:class:`~repro.faults.FaultInjector` the in-process stack uses: a LOST
outcome airs a lost-marker envelope (the tuned-in client hears
silence), a CORRUPT outcome airs byte-damaged payloads the receiver's
frame CRC catches. Outcomes and damage are pure functions of
(channel, absolute slot), so a socket fleet and the in-process
simulator experience the *same* channel — the foundation of the
loopback parity gate.

Shutdown is clean by construction: :meth:`aclose` (or the async context
manager) stops the clock, aborts every live connection and closes the
listening socket; all counters survive in :attr:`perf`. A client that
says ``BYE`` (or half-closes) gets every answer it asked for before the
station closes its socket.
"""

from __future__ import annotations

import asyncio
import bisect
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..broadcast.pointers import BroadcastProgram
from ..faults import CORRUPT, LOST, FaultConfig, FaultInjector, corrupt_frame
from ..io.wire import (
    DEFAULT_BUCKET_SIZE,
    AirFrame,
    encode_air_frame,
    encode_program,
)
from ..obs.events import (
    NULL_TRACER,
    ScheduleActivated,
    SlotAired,
    Tracer,
)
from ..perf import PerfRecorder
from .clock import SlotClock

__all__ = ["BroadcastStation"]

_MAX_LINE = 256  # longest unfinished control line; a LISTEN is < 32 bytes
_MAX_SLOT = 0xFFFFFFFF  # the envelope's absolute-slot field is 32 bits


@dataclass(frozen=True)
class _Segment:
    """One contiguous stretch of air served by a single plan version.

    ``start`` is the first absolute slot the segment airs; segments are
    appended by :meth:`BroadcastStation.publish` with starts aligned to
    the previous segment's cycle grid, so the air is always a whole
    number of cycles of each plan — a cutover never truncates a cycle
    mid-way.

    ``trace_id``/``span_id`` are the causal context of the publish that
    created the segment (zeros when untraced); every airing of the
    segment carries them in its air envelope, which is how a
    tuner's restarted walk learns which cutover to blame.
    """

    start: int
    version: int
    program: BroadcastProgram
    frames: list[list[bytes]]
    cycle_length: int
    trace_id: int = 0
    span_id: int = 0


class BroadcastStation:
    """Air one broadcast program over sockets until closed.

    Parameters
    ----------
    program:
        The pointer-wired cycle to air.
    bucket_size:
        Frame size in bytes (every airing is exactly this long).
    faults:
        Optional :class:`~repro.faults.FaultConfig`; ``None`` is perfect
        air. The injector is seeded by the config, never by wall time.
    slot_duration:
        Seconds per slot. 0 (default) free-runs: requests are answered
        immediately (logical time).
    host, port:
        Bind address; port 0 picks a free port (read :attr:`port` after
        :meth:`start`).
    queue_limit:
        Bound of each connection's request FIFO.
    perf:
        Optional shared :class:`~repro.perf.PerfRecorder`; a private one
        is created otherwise. Counters are namespaced
        ``net.station.*``.
    tracer:
        Optional :class:`~repro.obs.events.Tracer`. When enabled the
        station narrates every answered airing
        (:class:`~repro.obs.events.SlotAired`, one event per answered
        query of a coordinate) and — via the fault injector — every
        non-OK channel decision.
    schedule_version:
        :mod:`repro.sched` version of ``program``; 0 (default) means
        unversioned. Every airing's envelope carries the serving plan's
        version, the signal a tuner's walk uses to detect a mid-walk
        cutover; new versions go on air via :meth:`publish`.
    """

    def __init__(
        self,
        program: BroadcastProgram,
        *,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        faults: FaultConfig | None = None,
        slot_duration: float = 0.0,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        perf: PerfRecorder | None = None,
        tracer: Tracer | None = None,
        schedule_version: int = 0,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if schedule_version < 0:
            raise ValueError("schedule_version must be >= 0")
        self.program = program
        self.bucket_size = bucket_size
        self.frames = encode_program(program, bucket_size)
        self.cycle_length = program.cycle_length
        self.channels = program.channels
        # The version timeline: one segment per published plan, starts
        # strictly increasing and cycle-boundary aligned. Version 0
        # (the default) means unversioned.
        self.version = schedule_version
        self._timeline: list[_Segment] = [
            _Segment(1, schedule_version, program, self.frames,
                     program.cycle_length)
        ]
        self._starts = [1]
        self._frontier = 0  # highest absolute slot ever answered
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._injector = (
            FaultInjector(faults, tracer=self.tracer)
            if faults is not None
            else None
        )
        self.clock = SlotClock(slot_duration)
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.perf = perf if perf is not None else PerfRecorder()
        # Every field is fixed for the station's lifetime, so every
        # connection is greeted with the same bytes.
        self._welcome = (
            json.dumps(
                {
                    "cycle_length": self.cycle_length,
                    "channels": self.channels,
                    "bucket_size": self.bucket_size,
                    "slot_duration": self.clock.slot_duration,
                }
            ).encode()
            + b"\n"
        )

        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_AirConnection] = set()
        self._started = False
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "BroadcastStation":
        """Bind the listening socket and begin airing."""
        if self._started:
            return self
        self._started = True
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _AirConnection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.clock.slot_duration > 0:
            self.clock.start()
        return self

    async def aclose(self) -> None:
        """Stop airing: close sockets, keep the counters."""
        if self._closed:
            return
        self._closed = True
        await self.clock.aclose()
        for connection in list(self._connections):
            connection.abort()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def __aenter__(self) -> "BroadcastStation":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- the air itself -----------------------------------------------------
    def _segment_for(self, absolute_slot: int) -> _Segment:
        """The timeline segment active at ``absolute_slot``."""
        index = bisect.bisect_right(self._starts, absolute_slot) - 1
        return self._timeline[index]

    def next_boundary(self, after_slot: int) -> int:
        """First cycle-boundary start slot strictly after ``after_slot``.

        Boundaries are counted on the *last* published segment's grid:
        its start plus a whole number of its cycles — the earliest slot
        a new version may legally take over.
        """
        last = self._timeline[-1]
        if after_slot < last.start:
            after_slot = last.start
        elapsed = after_slot - last.start + 1
        cycles = (elapsed + last.cycle_length - 1) // last.cycle_length
        return last.start + max(1, cycles) * last.cycle_length

    def publish(
        self,
        program: BroadcastProgram,
        *,
        version: int,
        activate_at_slot: int | None = None,
        trace: tuple[int, int] | None = None,
    ) -> int:
        """Put a new plan version on the air at a cycle boundary.

        The swap is atomic at ``activate_at_slot``: every airing before
        it comes from the old segment, every airing from it onward from
        the new one — :meth:`airing` stays a pure function of
        (timeline, faults, coordinates), so a concurrent fleet still
        reproduces exactly. ``activate_at_slot`` must lie on the
        current last segment's cycle grid, after its start, and must
        not already have been answered from the old plan; ``None``
        picks the first boundary after everything answered or aired so
        far. Returns the activation slot.

        ``trace`` is an optional ``(trace_id, span_id)`` causal context
        (typically a ``station.cutover`` span the caller opened — see
        :mod:`repro.obs.spans`); the new segment's airings carry it on
        the wire so every walk the cutover restarts parents onto it.
        """
        if version <= self.version:
            raise ValueError(
                f"schedule versions must increase (have {self.version}, "
                f"got {version})"
            )
        if program.channels != self.channels:
            raise ValueError(
                f"published program has {program.channels} channels; the "
                f"station airs {self.channels} (channel count is fixed "
                "for the station's lifetime)"
            )
        last = self._timeline[-1]
        if activate_at_slot is None:
            activate_at_slot = self.next_boundary(
                max(self._frontier, self.clock.aired)
            )
        if activate_at_slot <= last.start:
            raise ValueError(
                f"activation slot {activate_at_slot} precedes the current "
                f"segment (starts at {last.start})"
            )
        if (activate_at_slot - last.start) % last.cycle_length != 0:
            raise ValueError(
                f"activation slot {activate_at_slot} is not a cycle "
                f"boundary of the current segment (start {last.start}, "
                f"cycle {last.cycle_length})"
            )
        if activate_at_slot <= self._frontier:
            raise ValueError(
                f"activation slot {activate_at_slot} was already answered "
                "from the current plan; activate at a future boundary"
            )
        frames = encode_program(program, self.bucket_size)
        trace_id, span_id = trace if trace is not None else (0, 0)
        self._timeline.append(
            _Segment(
                activate_at_slot, version, program, frames,
                program.cycle_length,
                trace_id=trace_id, span_id=span_id,
            )
        )
        self._starts.append(activate_at_slot)
        self.version = version
        self.perf.count("sched.publishes")
        if self.tracer.enabled:
            self.tracer.emit(
                ScheduleActivated(
                    version=version,
                    activate_slot=activate_at_slot,
                    cycle_length=program.cycle_length,
                )
            )
        return activate_at_slot

    def airing(self, channel: int, absolute_slot: int) -> AirFrame:
        """What actually went out on ``channel`` at ``absolute_slot``.

        A pure function of the version timeline, the fault config and
        the coordinates — the same airing is the same bytes no matter
        when or how often it is asked for, which is what makes a
        concurrent fleet's measurements reproducible.
        """
        if not 1 <= channel <= self.channels:
            raise ValueError(f"channel must be in 1..{self.channels}")
        if absolute_slot < 1:
            raise ValueError("absolute_slot is 1-based")
        segment = self._segment_for(absolute_slot)
        slot = (absolute_slot - segment.start) % segment.cycle_length + 1
        frame = segment.frames[channel - 1][slot - 1]
        if absolute_slot > self._frontier:
            self._frontier = absolute_slot
        fate = (
            self._injector.outcome(channel, absolute_slot)
            if self._injector is not None
            else "ok"
        )
        if self.tracer.enabled:
            self.tracer.emit(
                SlotAired(
                    channel=channel, absolute_slot=absolute_slot, fate=fate
                )
            )
        lost = fate == LOST
        if lost:
            self.perf.count("net.station.lost_aired")
            frame = b""
        elif fate == CORRUPT:
            # Damage is seeded per airing so repeat queries agree.
            rng = np.random.default_rng(
                [self.faults.seed, 0xC0, channel, absolute_slot]
            )
            self.perf.count("net.station.corrupt_aired")
            frame = corrupt_frame(frame, rng)
        # Positional: this runs once per airing, and keywords cost more.
        return AirFrame(
            channel, absolute_slot, frame, lost, segment.version,
            segment.trace_id, segment.span_id,
        )

    def welcome(self) -> bytes:
        """The one-line JSON metadata greeting new TCP connections."""
        return self._welcome

    # -- TCP fan-out --------------------------------------------------------
    def _parse_control(self, line: bytes) -> tuple[int, int] | str | None:
        parts = line.split()
        if not parts:
            return None
        if parts[0] == b"BYE":
            return "bye"
        if parts[0] == b"LISTEN" and len(parts) == 3:
            try:
                channel, slot = int(parts[1]), int(parts[2])
            except ValueError:
                return None
            if 1 <= channel <= self.channels and 1 <= slot <= _MAX_SLOT:
                return (channel, slot)
        return None


class _AirConnection(asyncio.Protocol):
    """One TCP client: LISTEN lines in, envelopes out, in request order.

    Requests for slots on air (all, under logical time) are answered in
    :meth:`data_received`; one for a future slot parks the FIFO behind a
    single clock waiter.
    """

    def __init__(self, station: BroadcastStation) -> None:
        self.station = station
        self.line = b""  # unfinished control line
        self.pending: deque[tuple[int, int]] = deque()
        self.waiter: asyncio.Task | None = None
        self.closing = False  # BYE or EOF seen: close once answered
        self.write_paused = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.station._connections.add(self)
        self.station.perf.count("net.station.connections")
        transport.write(self.station.welcome())

    def connection_lost(self, exc: Exception | None) -> None:
        self.abort()

    def abort(self) -> None:
        """Drop the connection and anything still unanswered."""
        self.station._connections.discard(self)
        self.pending.clear()
        if self.waiter is not None:
            self.waiter.cancel()
        self.transport.abort()

    def data_received(self, data: bytes) -> None:
        if self.closing:
            return
        *lines, self.line = (self.line + data).split(b"\n")
        for line in lines:
            request = self.station._parse_control(line)
            if request == "bye":
                self.closing = True
                break
            if request is None:
                return self._protocol_error()
            self.pending.append(request)
            self.station.perf.count("net.station.requests")
        if len(self.line) > _MAX_LINE and not self.closing:
            return self._protocol_error()
        self._serve()

    def eof_received(self) -> bool:
        self.closing = True
        self._serve()
        return True  # half-closed: keep writing the answers owed

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._serve()

    def _protocol_error(self) -> None:
        self.station.perf.count("net.station.protocol_errors")
        self.pending.clear()
        self.transport.close()

    def _serve(self) -> None:
        """Answer the FIFO in order, as far as the clock and socket allow."""
        station, transport = self.station, self.transport
        while self.pending and self.waiter is None and not self.write_paused:
            channel, slot = self.pending[0]
            if not station.clock.has_aired(slot):
                self.waiter = asyncio.ensure_future(self._wait_for(slot))
                break
            self.pending.popleft()
            transport.write(encode_air_frame(station.airing(channel, slot)))
            station.perf.count("net.station.frames_sent")
        if self.closing:
            if not self.pending:
                transport.close()
        elif self.write_paused or len(self.pending) >= station.queue_limit:
            transport.pause_reading()
        else:
            transport.resume_reading()

    async def _wait_for(self, slot: int) -> None:
        await self.station.clock.wait_for(slot)
        self.waiter = None
        self._serve()

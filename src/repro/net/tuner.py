"""The asyncio tuner: a mobile client on a real socket.

A :class:`TunerClient` is the live counterpart of
:func:`repro.io.wire_client.wire_walk` — the *same*
:class:`~repro.client.walk.PointerWalk` state machine, driven over a
TCP connection to a :class:`~repro.net.station.BroadcastStation`
instead of an in-memory frame grid. For each airing the walk names, the
tuner sends one ``LISTEN`` control line, dozes until the envelope
arrives (between those requests it reads nothing — selective tuning is
what the paper's tuning-time metric charges for), decodes the frame,
and feeds the machine: channel hops and loss recovery all fall out of
the shared walk logic.

Frames arrive through :class:`repro.io.wire.FrameStreamDecoder`, so the
tuner is indifferent to how TCP fragments the stream. A lost airing
arrives as a lost-marker envelope (the client was tuned in; it heard
nothing); a corrupted airing arrives as damaged bytes whose CRC check
fails in :func:`~repro.io.wire.decode_bucket` — both feed
:meth:`PointerWalk.on_loss` and recover per the configured
:class:`~repro.client.protocol.RecoveryPolicy`, mirroring
:func:`~repro.client.protocol.recovering_walk` slot for slot.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque

from ..client.protocol import RecoveryPolicy
from ..client.walk import PointerWalk, WalkResult
from ..exceptions import ReproError
from ..io.wire import AirFrame, FrameStreamDecoder, WireFormatError, decode_bucket
from ..obs.events import Tracer
from ..perf import PerfRecorder

__all__ = ["TunerClient", "TunerProtocolError"]


class TunerProtocolError(ReproError):
    """The station answered out of protocol (wrong airing, dead stream)."""


class TunerClient(asyncio.Protocol):
    """One mobile receiver connected to a station's TCP interface.

    The tuner is its connection's :class:`asyncio.Protocol`: each
    envelope reaches the walk, and the walk's next ``LISTEN`` goes out,
    inside :meth:`data_received`; ``fetch`` awaits one future per walk.

    Parameters
    ----------
    host, port:
        The station's bound address.
    policy:
        Loss-recovery policy for every fetch on this connection.
    perf:
        Optional shared recorder; counters are namespaced ``net.tuner.*``.
    tracer:
        Optional :class:`~repro.obs.events.Tracer` handed to every
        :class:`~repro.client.walk.PointerWalk` this tuner drives, so a
        live fleet narrates ``slot_read``/``channel_hop``/
        ``walk_finished`` events in the same coordinates as the
        in-process simulator.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RecoveryPolicy | None = None,
        perf: PerfRecorder | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.policy = policy
        self.perf = perf if perf is not None else PerfRecorder()
        self.tracer = tracer
        self.cycle_length: int | None = None
        self.channels: int | None = None
        self.bucket_size: int | None = None
        self._transport: asyncio.Transport | None = None
        self._welcome = bytearray()  # the WELCOME line until it is whole
        self._welcomed: asyncio.Future | None = None
        self._closed: asyncio.Future | None = None
        self._decoder = FrameStreamDecoder()
        # Envelopes no walk consumed yet; an unsolicited one fails the next.
        self._arrived: deque[AirFrame] = deque()
        self._walk: PointerWalk | None = None
        self._done: asyncio.Future | None = None
        self._error: Exception | None = None  # for the next fetch

    # -- lifecycle ----------------------------------------------------------
    async def connect(self) -> "TunerClient":
        """Open the connection and read the station's WELCOME metadata."""
        loop = asyncio.get_running_loop()
        self._welcomed, self._closed = loop.create_future(), loop.create_future()
        self._transport, _ = await loop.create_connection(
            lambda: self, self.host, self.port
        )
        line = await self._welcomed
        try:
            welcome = json.loads(line)
            self.cycle_length = int(welcome["cycle_length"])
            self.channels = int(welcome["channels"])
            self.bucket_size = int(welcome["bucket_size"])
        except (ValueError, KeyError, TypeError) as error:
            raise TunerProtocolError(f"malformed WELCOME line {line!r}") from error
        self.perf.count("net.tuner.connections")
        return self

    async def aclose(self) -> None:
        """Say goodbye and close the socket; idempotent."""
        transport, self._transport = self._transport, None
        if transport is None:
            return
        if not self._closed.done():
            transport.write(b"BYE\n")
        transport.close()
        await self._closed

    async def __aenter__(self) -> "TunerClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- the socket ----------------------------------------------------------
    def connection_lost(self, exc: Exception | None) -> None:
        self._closed.set_result(None)
        if not self._welcomed.done():
            error = TunerProtocolError("station closed before WELCOME")
            self._welcomed.set_exception(error)
        self._pump()

    def data_received(self, data: bytes) -> None:
        if not self._welcomed.done():
            self._welcome += data
            line, newline, data = self._welcome.partition(b"\n")
            if not newline:
                return
            self._welcomed.set_result(bytes(line))
        self._pump(data)

    # -- the access protocol -------------------------------------------------
    async def fetch(
        self, key: str, tune_slot: int, *, walk_id: int | None = None
    ) -> WalkResult:
        """Run one full access-protocol walk for ``key`` over the socket.

        ``tune_slot`` is the cycle-relative slot (1..cycle_length) the
        client tunes into channel 1 — identical semantics (and, at zero
        loss, identical measured numbers) to
        :func:`repro.client.protocol.object_walk` on the same program.
        ``walk_id`` stamps the traced events' ``walk`` correlation field
        so a concurrent fleet's interleaved trace stays attributable.
        """
        if self._transport is None or self.cycle_length is None:
            raise TunerProtocolError("not connected; call connect() first")
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        self._walk = PointerWalk(
            key,
            tune_slot,
            self.cycle_length,
            policy=self.policy,
            tracer=self.tracer,
            walk_id=walk_id,
        )
        done = self._done = asyncio.get_running_loop().create_future()
        self._send_listen()
        self._pump()
        try:
            result = await done
        finally:
            if self._done is done:  # cancelled: later frames are unsolicited
                self._walk = self._done = None
        self.perf.count("net.tuner.fetches")
        self.perf.count("net.tuner.reads", result.tuning_time)
        self.perf.count("net.tuner.retries", result.retries)
        if result.abandoned:
            self.perf.count("net.tuner.abandoned")
        return result

    def _pump(self, data: bytes = b"") -> None:
        """Feed arrived envelopes to the walk, one LISTEN per envelope."""
        try:
            self._arrived.extend(self._decoder.feed(data))
            while self._walk is not None and self._arrived:
                self._on_air(self._walk, self._arrived.popleft())
                self._send_listen()
            if self._walk is not None and self._closed.done():
                raise TunerProtocolError("station hung up mid-walk")
        except Exception as error:  # the walk's caller gets it, not the loop
            self._settle(error=error)

    def _send_listen(self) -> None:
        """Ask for the walk's next airing, or hand the finished walk back."""
        if (listen := self._walk.next_listen()) is None:
            return self._settle()
        line = b"LISTEN %d %d\n" % (listen.channel, listen.absolute_slot)
        self._transport.write(line)

    def _settle(self, error: Exception | None = None) -> None:
        """End the walk; with no ``fetch`` waiting, keep an error for the next."""
        walk, done = self._walk, self._done
        self._walk = self._done = None
        if done is None or done.cancelled():
            self._error = error or self._error
        elif error is not None:
            done.set_exception(error)
        else:
            done.set_result(walk.result)

    def _on_air(self, walk: PointerWalk, air: AirFrame) -> None:
        """One envelope's effect on the walk: the per-frame protocol."""
        listen = walk.next_listen()
        if air.channel != listen.channel or air.absolute_slot != listen.absolute_slot:
            raise TunerProtocolError(
                f"asked for channel {listen.channel} slot {listen.absolute_slot}, "
                f"station aired channel {air.channel} slot {air.absolute_slot}")
        # Wire-propagated causal context (v3 envelopes) must reach the
        # walk before the version stamp: a cutover closes the current
        # segment span and the new one parents onto the publish span
        # this very frame carries.
        walk.observe_trace(air.trace_id, air.span_id)
        if walk.observe_version(air.schedule_version):
            # The air's schedule version changed under the walk (the
            # station cut over to a new plan); the walk has already
            # consumed this read and restarted from the root per its
            # policy — a recovery event, never a corrupt bucket.
            self.perf.count("net.tuner.cutovers")
            return
        if air.lost:
            walk.on_loss()
            self.perf.count("net.tuner.lost")
            return
        slot = (listen.absolute_slot - 1) % self.cycle_length + 1
        try:
            bucket = decode_bucket(air.payload, channel=listen.channel, offset=slot)
        except WireFormatError:
            # Damaged in flight: the CRC caught it, treat as loss.
            walk.on_loss(corrupt=True)
            self.perf.count("net.tuner.corrupt")
            return
        walk.deliver(bucket)
        self.perf.count("net.tuner.frames")

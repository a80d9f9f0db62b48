"""Tests for the asyncio broadcast station."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.broadcast.pointers import BroadcastProgram
from repro.client.protocol import object_walk
from repro.faults import FaultConfig
from repro.io import wire
from repro.io.wire import FrameStreamDecoder, decode_bucket
from repro.net import BroadcastStation, TunerClient, build_demo_program
from repro.perf import PerfRecorder


@pytest.fixture(scope="module")
def program():
    return build_demo_program(items=10, channels=2, fanout=3, seed=3)


def run(coro):
    return asyncio.run(coro)


class TestConstruction:
    def test_rejects_bad_queue_limit(self, program):
        with pytest.raises(ValueError, match="queue_limit"):
            BroadcastStation(program, queue_limit=0)

    def test_welcome_is_built_once(self, program):
        station = BroadcastStation(program, bucket_size=80, slot_duration=0.5)
        assert station.welcome() is station.welcome()
        assert station.welcome() == json.dumps({
            "cycle_length": program.cycle_length,
            "channels": program.channels,
            "bucket_size": 80,
            "slot_duration": 0.5,
        }).encode() + b"\n"

    def test_stations_on_one_program_encode_it_twice(
        self, program, monkeypatch
    ):
        calls = []
        real = wire._encode_bucket

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(wire, "_encode_bucket", counted)
        fresh = BroadcastProgram(program.schedule, program.buckets)
        stations = [BroadcastStation(fresh) for _ in range(3)]
        stations[0].publish(fresh, version=2, activate_at_slot=1 + fresh.cycle_length)
        # The first station's encoding is not kept, the second's is.
        assert len(calls) == 2 * fresh.channels * fresh.cycle_length
        assert all(s.frames == stations[0].frames for s in stations)


class TestAiring:
    def test_airing_is_pure(self, program):
        station = BroadcastStation(
            program, faults=FaultConfig(loss=0.3, corruption=0.1, seed=5)
        )
        for channel in (1, 2):
            for slot in (1, 7, 23):
                first = station.airing(channel, slot)
                again = station.airing(channel, slot)
                assert first == again  # same fate, same bytes, every time

    def test_airing_wraps_the_cycle(self, program):
        station = BroadcastStation(program)
        cycle = program.cycle_length
        assert station.airing(1, 3).payload == station.airing(1, 3 + cycle).payload

    def test_airing_rejects_bad_coordinates(self, program):
        station = BroadcastStation(program)
        with pytest.raises(ValueError):
            station.airing(0, 1)
        with pytest.raises(ValueError):
            station.airing(99, 1)
        with pytest.raises(ValueError):
            station.airing(1, 0)

    def test_lost_airing_has_no_payload(self, program):
        station = BroadcastStation(
            program, faults=FaultConfig(loss=0.9, seed=1)
        )
        lost = [
            station.airing(1, slot)
            for slot in range(1, 40)
            if station.airing(1, slot).lost
        ]
        assert lost, "a 0.9-loss channel must drop something in 40 slots"
        assert all(air.payload == b"" for air in lost)


class TestTcpFanout:
    def test_listen_answer_roundtrip(self, program):
        async def scenario():
            async with BroadcastStation(program) as station:
                reader, writer = await asyncio.open_connection(
                    station.host, station.port
                )
                welcome = json.loads(await reader.readline())
                assert welcome["cycle_length"] == program.cycle_length
                assert welcome["channels"] == program.channels

                writer.write(b"LISTEN 1 3\n")
                await writer.drain()
                decoder = FrameStreamDecoder()
                frames = []
                while not frames:
                    frames = decoder.feed(await reader.read(4096))
                (air,) = frames
                assert (air.channel, air.absolute_slot) == (1, 3)
                # The payload is the actual slot-3 frame of the cycle.
                decode_bucket(air.payload, channel=1, offset=3)

                writer.write(b"BYE\n")
                await writer.drain()
                assert await reader.read() == b""  # orderly close
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_garbage_control_line_closes_the_connection(self, program):
        async def scenario():
            perf = PerfRecorder()
            async with BroadcastStation(program, perf=perf) as station:
                reader, writer = await asyncio.open_connection(
                    station.host, station.port
                )
                await reader.readline()  # welcome
                writer.write(b"EAVESDROP everything\n")
                await writer.drain()
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()
            assert perf.counters["net.station.protocol_errors"] == 1

        run(scenario())

    def test_shutdown_with_connection_mid_walk(self, program):
        """aclose() while a client is connected must not hang or leak."""

        async def scenario():
            station = BroadcastStation(program)
            await station.start()
            reader, writer = await asyncio.open_connection(
                station.host, station.port
            )
            await reader.readline()
            writer.write(b"LISTEN 1 1\n")  # walk in progress, no BYE
            await writer.drain()
            await asyncio.sleep(0.01)
            await station.aclose()
            assert not station._connections
            await station.aclose()  # idempotent
            while await reader.read(4096):
                pass  # drain any answered frames until the hang-up EOF
            writer.close()
            await writer.wait_closed()

        run(scenario())

    def test_counters_survive_shutdown(self, program):
        async def scenario():
            perf = PerfRecorder()
            async with BroadcastStation(program, perf=perf) as station:
                reader, writer = await asyncio.open_connection(
                    station.host, station.port
                )
                await reader.readline()
                writer.write(b"LISTEN 2 5\nBYE\n")
                await writer.drain()
                await reader.read()
                writer.close()
                await writer.wait_closed()
            return perf

        perf = run(scenario())
        assert perf.counters["net.station.connections"] == 1
        assert perf.counters["net.station.requests"] == 1
        assert perf.counters["net.station.frames_sent"] == 1


async def _connect(station):
    """Open a raw client connection; returns (reader, writer) past WELCOME."""
    reader, writer = await asyncio.open_connection(station.host, station.port)
    await reader.readline()
    return reader, writer


def _listens(asks) -> bytes:
    return b"".join(b"LISTEN %d %d\n" % ask for ask in asks)


def _coordinates(data: bytes) -> list[tuple[int, int]]:
    return [
        (air.channel, air.absolute_slot)
        for air in FrameStreamDecoder().feed(data)
    ]


ASKS = [(1, 3), (2, 7), (1, 1), (2, 40), (1, 3), (2, 2)]


class TestTcpPipelining:
    @pytest.mark.parametrize("goodbye", ["bye", "half-close"])
    def test_pipelined_listens_are_answered_in_order(self, program, goodbye):
        """One write of many LISTENs, then goodbye: every answer, in order."""

        async def scenario():
            perf = PerfRecorder()
            async with BroadcastStation(program, perf=perf) as station:
                reader, writer = await _connect(station)
                writer.write(_listens(ASKS))
                if goodbye == "bye":
                    writer.write(b"BYE\nLISTEN 1 1\n")  # nothing after BYE
                else:
                    writer.write_eof()
                data = await reader.read()  # to the station's close
                writer.close()
                await writer.wait_closed()
            return data, perf

        data, perf = run(scenario())
        assert _coordinates(data) == ASKS
        assert perf.counters["net.station.requests"] == len(ASKS)
        assert perf.counters["net.station.frames_sent"] == len(ASKS)

    def test_future_slot_holds_back_later_requests(self, program):
        """Paced air: a LISTEN for a future slot parks everything after it."""

        async def scenario():
            async with BroadcastStation(
                program, slot_duration=0.01
            ) as station:
                reader, writer = await _connect(station)
                future = station.clock.aired + 5
                writer.write(_listens([(1, future), (2, 1)]))
                decoder, airs = FrameStreamDecoder(), []
                while len(airs) < 2:
                    chunk = await asyncio.wait_for(reader.read(4096), 5.0)
                    for air in decoder.feed(chunk):
                        # Answered only once the clock has aired it.
                        assert station.clock.aired >= air.absolute_slot
                        airs.append((air.channel, air.absolute_slot))
                writer.close()
                await writer.wait_closed()
            return future, airs

        future, airs = run(scenario())
        assert airs == [(1, future), (2, 1)]

    def test_a_client_that_never_reads_is_paused(self, program):
        """Pipelining without reading backpressures that socket only."""
        limit, asks = 4, [(1, slot) for slot in range(1, 50_001)]
        leaf = program.schedule.tree.data_nodes()[0]

        async def paused(connection):
            while connection.transport.is_reading():
                await asyncio.sleep(0.01)

        async def scenario():
            perf = PerfRecorder()
            async with BroadcastStation(
                program, bucket_size=8192, queue_limit=limit, perf=perf
            ) as station:
                _, hog = await _connect(station)
                (connection,) = station._connections
                hog.write(_listens(asks))  # and never read a byte
                await asyncio.wait_for(paused(connection), 10.0)
                pending = len(connection.pending)
                async with TunerClient(station.host, station.port) as tuner:
                    result = await tuner.fetch(leaf.label, 2)
                hog.transport.abort()
            return pending, perf, result

        pending, perf, result = run(scenario())
        # Reading pauses once the FIFO is full, so the station holds at
        # most the lines of one socket read (256 KiB) beyond the limit.
        assert pending <= limit + 2**18 // len(b"LISTEN 1 1\n")
        assert perf.counters["net.station.requests"] < len(asks)
        assert perf.counters["net.station.frames_sent"] < len(asks)
        expected = object_walk(program, leaf, 2)
        assert result.access_time == expected.access_time
        assert result.payload == f"item:{leaf.label}".encode()

    def test_overlong_control_line_is_a_protocol_error(self, program):
        async def scenario():
            perf = PerfRecorder()
            async with BroadcastStation(program, perf=perf) as station:
                reader, writer = await _connect(station)
                writer.write(b"L" * 70_000)  # no newline, ever
                try:
                    tail = await reader.read()
                except ConnectionResetError:  # closed with input unread
                    tail = b""
                assert tail == b""
                writer.transport.abort()
            return perf

        perf = run(scenario())
        assert perf.counters["net.station.protocol_errors"] == 1
        assert perf.counters.get("net.station.requests", 0) == 0

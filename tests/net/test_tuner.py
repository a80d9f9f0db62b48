"""Tests for the asyncio tuner client against a live loopback station."""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.client.protocol import RecoveryPolicy, object_walk
from repro.faults import FaultConfig
from repro.io.wire import AirFrame, WireFormatError, encode_air_frame
from repro.net import BroadcastStation, TunerClient, build_demo_program
from repro.net.tuner import TunerProtocolError


@pytest.fixture(scope="module")
def program():
    return build_demo_program(items=10, channels=2, fanout=3, seed=3)


def run(coro):
    return asyncio.run(coro)


class TestFetch:
    def test_fetch_matches_object_walk(self, program):
        leaf_of = {
            leaf.label: leaf for leaf in program.schedule.tree.data_nodes()
        }

        async def scenario():
            results = {}
            async with BroadcastStation(program) as station:
                async with TunerClient(station.host, station.port) as tuner:
                    assert tuner.cycle_length == program.cycle_length
                    for key in leaf_of:
                        results[key] = await tuner.fetch(key, 2)
            return results

        for key, result in run(scenario()).items():
            expected = object_walk(program, leaf_of[key], 2)
            assert result.access_time == expected.access_time
            assert result.tuning_time == expected.tuning_time
            assert result.channel_switches == expected.channel_switches
            assert result.payload == f"item:{key}".encode()

    def test_fetch_recovers_over_lossy_air(self, program):
        async def scenario():
            async with BroadcastStation(
                program, faults=FaultConfig(loss=0.3, seed=8)
            ) as station:
                async with TunerClient(
                    station.host,
                    station.port,
                    policy=RecoveryPolicy(max_cycles=12),
                ) as tuner:
                    return await tuner.fetch("K001", 1)

        result = run(scenario())
        assert not result.abandoned
        assert result.payload == b"item:K001"

    def test_fetch_before_connect_raises(self, program):
        async def scenario():
            tuner = TunerClient("127.0.0.1", 1)
            with pytest.raises(TunerProtocolError, match="not connected"):
                await tuner.fetch("K001", 1)

        run(scenario())


class TestProtocolErrors:
    def test_wrong_airing_is_a_protocol_error(self, program):
        """A station answering the wrong slot must be called out."""

        async def rogue(reader, writer):
            writer.write(
                json.dumps(
                    {"cycle_length": 10, "channels": 2, "bucket_size": 96}
                ).encode()
                + b"\n"
            )
            await reader.readline()  # the LISTEN
            writer.write(
                encode_air_frame(
                    AirFrame(channel=2, absolute_slot=999, payload=b"x")
                )
            )
            await writer.drain()

        async def scenario():
            server = await asyncio.start_server(rogue, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with TunerClient("127.0.0.1", port) as tuner:
                    with pytest.raises(
                        TunerProtocolError, match="station aired"
                    ):
                        await tuner.fetch("K001", 1)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_hangup_mid_walk_is_a_protocol_error(self, program):
        async def mute(reader, writer):
            writer.write(
                json.dumps(
                    {"cycle_length": 10, "channels": 2, "bucket_size": 96}
                ).encode()
                + b"\n"
            )
            await reader.readline()
            writer.close()  # hang up instead of answering

        async def scenario():
            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with TunerClient("127.0.0.1", port) as tuner:
                    with pytest.raises(
                        TunerProtocolError, match="hung up"
                    ):
                        await tuner.fetch("K001", 1)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_malformed_welcome_is_a_protocol_error(self, program):
        async def garbler(reader, writer):
            writer.write(b"not json at all\n")
            await writer.drain()

        async def scenario():
            server = await asyncio.start_server(garbler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                tuner = TunerClient("127.0.0.1", port)
                with pytest.raises(TunerProtocolError, match="WELCOME"):
                    await tuner.connect()
                await tuner.aclose()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_aclose_is_idempotent(self, program):
        async def scenario():
            async with BroadcastStation(program) as station:
                tuner = await TunerClient(
                    station.host, station.port
                ).connect()
                await tuner.aclose()
                await tuner.aclose()

        run(scenario())


class FakeStation:
    """A hand-rolled TCP station answering from ``BroadcastStation.airing``.

    ``chunk`` splits every write into pieces of that many bytes. ``early``
    is an airing written in one segment with the WELCOME line, ahead of
    the LISTEN that will ask for it (which then goes unanswered).
    """

    def __init__(self, program, *, chunk=None, early=None):
        self.air = BroadcastStation(program)
        self.chunk, self.early = chunk, early
        self.writers = []

    async def send(self, writer, data):
        step = self.chunk or len(data)
        for start in range(0, len(data), step):
            writer.write(data[start:start + step])
            await writer.drain()
            await asyncio.sleep(0)  # let the tuner read each piece

    async def serve(self, reader, writer):
        self.writers.append(writer)
        head, skip = self.air.welcome(), self.early
        if skip is not None:
            head += encode_air_frame(self.air.airing(*skip))
        await self.send(writer, head)
        while (line := await reader.readline()).startswith(b"LISTEN"):
            ask = tuple(int(part) for part in line.split()[1:])
            if ask == skip:
                skip = None
                continue
            await self.send(writer, encode_air_frame(self.air.airing(*ask)))
        writer.close()

    @contextlib.asynccontextmanager
    async def tuner(self):
        server = await asyncio.start_server(self.serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            async with TunerClient("127.0.0.1", port) as tuner:
                yield tuner
        finally:
            server.close()
            await server.wait_closed()


def _assert_object_walk(program, leaf, tune, result):
    expected = object_walk(program, leaf, tune)
    assert result.access_time == expected.access_time
    assert result.tuning_time == expected.tuning_time
    assert result.channel_switches == expected.channel_switches
    assert result.payload == f"item:{leaf.label}".encode()


class TestFraming:
    def test_one_byte_at_a_time(self, program):
        leaves = program.schedule.tree.data_nodes()

        async def scenario():
            async with FakeStation(program, chunk=1).tuner() as tuner:
                return [await tuner.fetch(leaf.label, 2) for leaf in leaves]

        for leaf, result in zip(leaves, run(scenario())):
            _assert_object_walk(program, leaf, 2, result)

    def test_welcome_and_first_envelope_in_one_segment(self, program):
        leaf = program.schedule.tree.data_nodes()[3]
        tune = 5

        async def scenario():
            fake = FakeStation(program, early=(1, tune))
            async with fake.tuner() as tuner:
                return await tuner.fetch(leaf.label, tune)

        _assert_object_walk(program, leaf, tune, run(scenario()))

    def test_unsolicited_frame_fails_the_next_fetch(self, program):
        leaf = program.schedule.tree.data_nodes()[0]

        async def scenario():
            fake = FakeStation(program)
            async with fake.tuner() as tuner:
                _assert_object_walk(
                    program, leaf, 2, await tuner.fetch(leaf.label, 2)
                )
                # Between walks: nobody asked for this airing.
                await fake.send(fake.writers[0], encode_air_frame(
                    AirFrame(channel=2, absolute_slot=999, payload=b"x")
                ))
                await asyncio.sleep(0.05)
                with pytest.raises(TunerProtocolError, match="station aired"):
                    await tuner.fetch(leaf.label, 2)

        run(scenario())


class TestDecoderFeeds:
    def test_walks_feed_the_decoder_only_bytes(self, program):
        leaves = program.schedule.tree.data_nodes()
        fed = []

        async def scenario():
            async with BroadcastStation(program) as station:
                async with TunerClient(station.host, station.port) as tuner:
                    feed = tuner._decoder.feed

                    def spy(data):
                        fed.append(len(data))
                        return feed(data)

                    tuner._decoder.feed = spy
                    return [await tuner.fetch(leaf.label, 2) for leaf in leaves]

        for leaf, result in zip(leaves, run(scenario())):
            _assert_object_walk(program, leaf, 2, result)
        assert fed and 0 not in fed

    def test_a_failed_stream_fails_every_later_fetch(self, program):
        """The station sends garbage once, then answers no LISTEN: each
        fetch must fail from the bytes already received."""
        leaf = program.schedule.tree.data_nodes()[0]
        welcome = BroadcastStation(program).welcome()

        async def garbler(reader, writer):
            writer.write(welcome + b"\x00garbage")
            await writer.drain()
            while await reader.readline():
                pass

        async def scenario():
            server = await asyncio.start_server(garbler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with TunerClient("127.0.0.1", port) as tuner:
                    for _ in range(3):
                        with pytest.raises(WireFormatError, match="magic 0x00"):
                            await asyncio.wait_for(
                                tuner.fetch(leaf.label, 2), 2
                            )
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

"""The air envelope's contracts: the stream decoder, the encoder, the record.

:meth:`FrameStreamDecoder.feed` parses envelopes straight from the
received bytes and keeps only an incomplete tail. ``_OracleDecoder``
below is the earlier decoder, which extended and trimmed one
``bytearray``, kept as the reference: under any chunking of any stream,
good or broken, the two must return equal frames, raise the same
message at the same chunk, and hold the same number of pending bytes.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io.wire import (
    _AIR_HEADER,
    _AIR_LOST,
    _AIR_MAGIC,
    _AIR_OK,
    AirFrame,
    FrameStreamDecoder,
    WireFormatError,
    encode_air_frame,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class _OracleDecoder:
    """The bytearray decoder that ``FrameStreamDecoder`` replaced."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[AirFrame]:
        self._buffer.extend(data)
        frames: list[AirFrame] = []
        cursor = 0
        size = _AIR_HEADER.size
        while len(self._buffer) - cursor >= 1:
            if self._buffer[cursor] != _AIR_MAGIC:
                raise WireFormatError(
                    f"bad air-envelope magic {self._buffer[cursor]:#04x}; "
                    "stream is desynchronised"
                )
            if len(self._buffer) - cursor < size:
                break  # header still in flight
            (
                _, status, channel, slot, length, version, trace_id, span_id,
            ) = _AIR_HEADER.unpack_from(self._buffer, cursor)
            if status not in (_AIR_OK, _AIR_LOST):
                raise WireFormatError(f"unknown air status {status}")
            if len(self._buffer) - cursor - size < length:
                break  # payload still in flight
            start = cursor + size
            payload = bytes(self._buffer[start:start + length])
            if status == _AIR_LOST and payload:
                raise WireFormatError("lost airing carries a payload")
            frames.append(
                AirFrame(
                    channel=channel,
                    absolute_slot=slot,
                    payload=payload,
                    lost=status == _AIR_LOST,
                    schedule_version=version,
                    trace_id=trace_id,
                    span_id=span_id,
                )
            )
            cursor = start + length
        if cursor:
            del self._buffer[:cursor]
        return frames


channels = st.integers(min_value=1, max_value=0xFF)
slots = st.integers(min_value=1, max_value=0xFFFFFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
airs = st.builds(
    AirFrame,
    channel=channels,
    absolute_slot=slots,
    payload=st.binary(max_size=130),
    schedule_version=u32,
    trace_id=u32,
    span_id=u32,
) | st.builds(AirFrame, channel=channels, absolute_slot=slots, lost=st.just(True))


def _status_forged(envelope: bytes, status: int) -> bytes:
    return envelope[:1] + bytes([status]) + envelope[2:]


# A broken stream's last envelope: a bad magic byte, an unknown status,
# or a lost-marker that carries a payload.
breakages = st.one_of(
    st.integers(min_value=0, max_value=0xFF)
    .filter(lambda byte: byte != _AIR_MAGIC)
    .map(lambda byte: lambda envelope: bytes([byte]) + envelope[1:]),
    st.integers(min_value=2, max_value=0xFF)
    .map(lambda status: lambda envelope: _status_forged(envelope, status)),
    st.just(lambda envelope: _status_forged(envelope, _AIR_LOST)),
)

chunk_kinds = st.sampled_from([bytes, bytearray, memoryview])


def _outcome(decoder, chunk):
    try:
        return decoder.feed(chunk), None
    except WireFormatError as error:
        return None, str(error)


class TestFeedAgainstTheOracle:
    @settings(max_examples=300, **COMMON)
    @given(
        frames=st.lists(airs, max_size=6),
        broken=st.none() | st.tuples(airs, breakages),
        data=st.data(),
    )
    def test_any_chunking_gives_the_oracles_frames_errors_and_tail(
        self, frames, broken, data
    ):
        stream = b"".join(encode_air_frame(air) for air in frames)
        if broken is not None:
            air, breakage = broken
            if not air.payload:  # a lost-marker forgery needs a payload
                air = dataclasses.replace(air, payload=b"x", lost=False)
            stream += breakage(encode_air_frame(air))
        # A trailing partial envelope, so a tail is pending at the end.
        stream += data.draw(st.binary(max_size=30).map(
            lambda tail: bytes([_AIR_MAGIC]) + tail if tail else b""
        ))
        decoder, oracle = FrameStreamDecoder(), _OracleDecoder()
        cursor = 0
        while cursor < len(stream):
            step = data.draw(
                st.integers(min_value=1, max_value=len(stream) - cursor)
            )
            chunk = data.draw(chunk_kinds)(stream[cursor:cursor + step])
            cursor += step
            got, expected = _outcome(decoder, chunk), _outcome(oracle, chunk)
            assert got == expected
            for frame in got[0] or ():
                assert type(frame.payload) is bytes
            if got[1] is not None:
                break
            assert decoder.pending_bytes == oracle.pending_bytes

    def test_a_failed_stream_stays_failed(self):
        decoder, oracle = FrameStreamDecoder(), _OracleDecoder()
        good = encode_air_frame(AirFrame(channel=1, absolute_slot=3))
        for instance in (decoder, oracle):
            with pytest.raises(WireFormatError, match="desynchronised"):
                instance.feed(good + b"\x00")
        assert decoder.pending_bytes == oracle.pending_bytes
        for instance in (decoder, oracle):
            with pytest.raises(WireFormatError, match="desynchronised"):
                instance.feed(good)


class TestEncodeErrors:
    """Each invalid field raises the message it always has, in field order."""

    CASES = [
        (dict(channel=0), "air channel 0 out of range"),
        (dict(channel=256), "air channel 256 out of range"),
        (dict(channel=-1), "air channel -1 out of range"),
        (dict(absolute_slot=0), "absolute slot 0 out of range"),
        (dict(absolute_slot=2**32), f"absolute slot {2**32} out of range"),
        (dict(payload=b"x" * 0x10000), "air payload exceeds 64 KiB"),
        (dict(payload=b"x", lost=True), "a lost airing cannot carry a payload"),
        (dict(schedule_version=-1), "schedule version -1 out of range"),
        (dict(schedule_version=2**32), f"schedule version {2**32} out of range"),
        (dict(trace_id=-1), "trace id -1 out of range"),
        (dict(trace_id=2**32), f"trace id {2**32} out of range"),
        (dict(span_id=-1), "span id -1 out of range"),
        (dict(span_id=2**32), f"span id {2**32} out of range"),
        # Two broken fields: the first in field order is reported.
        (dict(channel=0, span_id=-1), "air channel 0 out of range"),
        (dict(absolute_slot=0, payload=b"x", lost=True),
         "absolute slot 0 out of range"),
        (dict(payload=b"x" * 0x10000, lost=True), "air payload exceeds 64 KiB"),
        (dict(lost=True, payload=b"x", trace_id=2**32),
         "a lost airing cannot carry a payload"),
    ]

    @pytest.mark.parametrize(("fields", "message"), CASES)
    def test_message(self, fields, message):
        air = dataclasses.replace(
            AirFrame(channel=1, absolute_slot=1), **fields
        )
        with pytest.raises(WireFormatError) as caught:
            encode_air_frame(air)
        assert str(caught.value) == message

    def test_field_limits_encode(self):
        air = AirFrame(
            channel=255, absolute_slot=0xFFFFFFFF, payload=b"x" * 0xFFFF,
            schedule_version=0xFFFFFFFF, trace_id=0xFFFFFFFF,
            span_id=0xFFFFFFFF,
        )
        assert FrameStreamDecoder().feed(encode_air_frame(air)) == [air]


class TestAirFrameRecord:
    def test_fields_order_and_defaults_are_kept(self):
        assert [
            (field.name, field.default)
            for field in dataclasses.fields(AirFrame)
        ] == [
            ("channel", dataclasses.MISSING),
            ("absolute_slot", dataclasses.MISSING),
            ("payload", b""),
            ("lost", False),
            ("schedule_version", 0),
            ("trace_id", 0),
            ("span_id", 0),
        ]

    def test_keyword_and_positional_construction_agree(self):
        by_name = AirFrame(
            channel=2, absolute_slot=7, payload=b"p", lost=False,
            schedule_version=3, trace_id=4, span_id=5,
        )
        assert AirFrame(2, 7, b"p", False, 3, 4, 5) == by_name
        assert dataclasses.replace(by_name, span_id=6).span_id == 6
        assert by_name.span_id == 5

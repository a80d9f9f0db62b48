"""Hypothesis round-trip fuzz of the wire format and the air envelope.

Satellite coverage beyond the structured property tests in
``test_wire_properties.py``: single-bucket encode/decode round-trips
over arbitrary labels (up to the 255-byte limit), bucket-size edges
(exact fit passes, one byte under raises), and the stream decoder reassembling envelopes from arbitrary
chunkings.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broadcast.bucket import Bucket, Pointer
from repro.io.wire import (
    AirFrame,
    FrameStreamDecoder,
    WireFormatError,
    decode_bucket,
    encode_air_frame,
    encode_bucket,
)
from repro.tree.node import DataNode, IndexNode

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

# ASCII-only labels: the wire format's labels/keys are ASCII-safe text.
labels = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=255,
)


def data_bucket(label: str, next_offset: int = 0) -> Bucket:
    bucket = Bucket(channel=1, slot=1, node=DataNode(label, 1.0))
    if next_offset:
        bucket.next_cycle_pointer = Pointer(1, 1, next_offset, "root")
    return bucket


def index_bucket(label: str, pointers: list[tuple[int, int, str]]) -> Bucket:
    # The encoder pairs pointers with children positionally and derives
    # key_hi from each child subtree; single-leaf children make the
    # expected separators exactly the given keys.
    children = [DataNode(key, 1.0) for _, _, key in pointers]
    bucket = Bucket(channel=1, slot=1, node=IndexNode(label, children))
    bucket.child_pointers = [
        Pointer(channel, offset, offset, key)
        for channel, offset, key in pointers
    ]
    return bucket


class TestDataBucketRoundTrip:
    @settings(max_examples=120, **COMMON)
    @given(
        label=labels,
        next_offset=st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_round_trip(self, label, next_offset):
        bucket = data_bucket(label, next_offset)
        frame = encode_bucket(bucket, 1024)
        assert len(frame) == 1024
        decoded = decode_bucket(frame)
        assert decoded.kind == "data"
        assert decoded.label == label
        assert decoded.next_cycle_offset == next_offset
        assert decoded.payload == f"item:{label}".encode()

    def test_255_byte_label_is_the_edge(self):
        frame = encode_bucket(data_bucket("L" * 255), 1024)
        assert decode_bucket(frame).label == "L" * 255
        with pytest.raises(WireFormatError, match="label longer"):
            encode_bucket(data_bucket("L" * 256), 2048)


class TestBucketSizeEdges:
    @settings(max_examples=80, **COMMON)
    @given(label=labels)
    def test_exact_fit_passes_one_byte_under_raises(self, label):
        bucket = data_bucket(label)
        # frame = marker + CRC (5) + fixed header (4) + label
        #         + payload length (2) + payload
        exact = 5 + 4 + len(label.encode()) + 2 + len(
            f"item:{label}".encode()
        )
        frame = encode_bucket(bucket, exact)
        assert len(frame) == exact
        assert decode_bucket(frame).label == label
        with pytest.raises(WireFormatError, match="exceeds"):
            encode_bucket(bucket, exact - 1)

    @settings(max_examples=40, **COMMON)
    @given(
        pointers=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=255),
                st.integers(min_value=1, max_value=0xFFFF),
                st.text(
                    alphabet=st.characters(min_codepoint=48, max_codepoint=122),
                    min_size=1,
                    max_size=12,
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_index_round_trip(self, pointers):
        frame = encode_bucket(index_bucket("N", pointers), 2048)
        decoded = decode_bucket(frame)
        assert decoded.kind == "index"
        assert [
            (p.channel, p.offset) for p in decoded.pointers
        ] == [(channel, offset) for channel, offset, _ in pointers]
        # key_hi separators are the *max* key of each child subtree —
        # here each child is a single leaf, so its own key.
        assert [p.key_hi for p in decoded.pointers] == [
            key for _, _, key in pointers
        ]


class TestAirEnvelopeFuzz:
    # schedule_version 0 emits the 9-byte version-1 envelope, positive
    # versions the 13-byte version-2 one — the lists mix both freely,
    # exactly like a stream crossing a mid-walk cutover does.
    airs = st.lists(
        st.one_of(
            st.builds(
                AirFrame,
                channel=st.integers(min_value=1, max_value=255),
                absolute_slot=st.integers(min_value=1, max_value=0xFFFFFFFF),
                payload=st.binary(min_size=0, max_size=300),
                schedule_version=st.integers(
                    min_value=0, max_value=0xFFFFFFFF
                ),
            ),
            st.builds(
                AirFrame,
                channel=st.integers(min_value=1, max_value=255),
                absolute_slot=st.integers(min_value=1, max_value=0xFFFFFFFF),
                lost=st.just(True),
                schedule_version=st.integers(
                    min_value=0, max_value=0xFFFFFFFF
                ),
            ),
        ),
        max_size=12,
    )

    @settings(max_examples=120, **COMMON)
    @given(airs=airs, data=st.data())
    def test_any_chunking_reassembles_the_same_envelopes(self, airs, data):
        stream = b"".join(encode_air_frame(air) for air in airs)
        decoder = FrameStreamDecoder()
        received = []
        cursor = 0
        while cursor < len(stream):
            step = data.draw(
                st.integers(min_value=1, max_value=len(stream) - cursor)
            )
            received.extend(decoder.feed(stream[cursor:cursor + step]))
            cursor += step
        assert received == airs
        assert decoder.pending_bytes == 0

    def test_desynchronised_stream_raises(self):
        decoder = FrameStreamDecoder()
        with pytest.raises(WireFormatError, match="desynchronised"):
            decoder.feed(b"\x00" * 16)

    def test_lost_with_payload_rejected_both_ways(self):
        with pytest.raises(WireFormatError, match="lost airing"):
            encode_air_frame(
                AirFrame(channel=1, absolute_slot=1, payload=b"x", lost=True)
            )
        # And a forged stream claiming LOST-with-payload is rejected too.
        import struct

        forged = struct.pack(">BBBIH", 0xAE, 1, 1, 1, 2) + b"xy"
        with pytest.raises(WireFormatError, match="lost airing"):
            FrameStreamDecoder().feed(forged)


class TestAirEnvelopeVersionInterop:
    """Version-2 (schedule-stamped) and version-1 envelopes interoperate."""

    @settings(max_examples=120, **COMMON)
    @given(
        channel=st.integers(min_value=1, max_value=255),
        slot=st.integers(min_value=1, max_value=0xFFFFFFFF),
        payload=st.binary(min_size=0, max_size=200),
        version=st.integers(min_value=1, max_value=0xFFFFFFFF),
    )
    def test_v2_round_trip_carries_the_version(
        self, channel, slot, payload, version
    ):
        air = AirFrame(
            channel=channel,
            absolute_slot=slot,
            payload=payload,
            schedule_version=version,
        )
        encoded = encode_air_frame(air)
        assert encoded[0] == 0xAF  # version-2 magic
        assert len(encoded) == 13 + len(payload)
        assert FrameStreamDecoder().feed(encoded) == [air]

    @settings(max_examples=80, **COMMON)
    @given(
        channel=st.integers(min_value=1, max_value=255),
        slot=st.integers(min_value=1, max_value=0xFFFFFFFF),
        payload=st.binary(min_size=0, max_size=200),
    )
    def test_version_zero_is_byte_identical_to_v1(
        self, channel, slot, payload
    ):
        """An unversioned station's bytes never change: wire stability."""
        stamped = AirFrame(
            channel=channel,
            absolute_slot=slot,
            payload=payload,
            schedule_version=0,
        )
        plain = AirFrame(channel=channel, absolute_slot=slot, payload=payload)
        encoded = encode_air_frame(stamped)
        assert encoded == encode_air_frame(plain)
        assert encoded[0] == 0xAE  # version-1 magic
        assert len(encoded) == 9 + len(payload)

    @settings(max_examples=60, **COMMON)
    @given(airs=TestAirEnvelopeFuzz.airs, data=st.data())
    def test_mixed_version_stream_survives_any_chunking(self, airs, data):
        """A cutover mid-stream: v1 and v2 frames interleaved freely."""
        stream = b"".join(encode_air_frame(air) for air in airs)
        decoder = FrameStreamDecoder()
        received = []
        cursor = 0
        while cursor < len(stream):
            step = data.draw(
                st.integers(min_value=1, max_value=len(stream) - cursor)
            )
            received.extend(decoder.feed(stream[cursor:cursor + step]))
            cursor += step
        assert received == airs
        # Version stamps survive exactly; v1 frames decode as version 0.
        assert [a.schedule_version for a in received] == [
            a.schedule_version for a in airs
        ]

    def test_forged_v2_with_version_zero_is_rejected(self):
        """The v2 layout exists *because* it carries a version; a v2
        header claiming version 0 is a protocol violation, not a quiet
        alias of v1."""
        import struct

        forged = struct.pack(">BBBIHI", 0xAF, 0, 1, 1, 0, 0)
        with pytest.raises(WireFormatError, match="schedule version 0"):
            FrameStreamDecoder().feed(forged)

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


u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestAirEnvelopeFuzz:
    # Version and trace context take any u32, zero included: 0 means
    # "unversioned" and (0, 0) "untraced", in the one envelope layout.
    airs = st.lists(
        st.one_of(
            st.builds(
                AirFrame,
                channel=st.integers(min_value=1, max_value=255),
                absolute_slot=st.integers(min_value=1, max_value=0xFFFFFFFF),
                payload=st.binary(min_size=0, max_size=300),
                schedule_version=u32,
                trace_id=u32,
                span_id=u32,
            ),
            st.builds(
                AirFrame,
                channel=st.integers(min_value=1, max_value=255),
                absolute_slot=st.integers(min_value=1, max_value=0xFFFFFFFF),
                lost=st.just(True),
                schedule_version=u32,
                trace_id=u32,
                span_id=u32,
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
        header = encode_air_frame(AirFrame(channel=1, absolute_slot=1))
        forged = bytearray(header)
        forged[1] = 1  # status: lost
        forged[7:9] = (2).to_bytes(2, "big")  # payload length
        with pytest.raises(WireFormatError, match="lost airing"):
            FrameStreamDecoder().feed(bytes(forged) + b"xy")

    def test_unknown_status_rejected(self):
        forged = bytearray(encode_air_frame(AirFrame(channel=1, absolute_slot=1)))
        forged[1] = 7
        with pytest.raises(WireFormatError, match="unknown air status 7"):
            FrameStreamDecoder().feed(bytes(forged))

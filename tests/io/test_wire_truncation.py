"""Truncated-frame regression tests: every cut must be a WireFormatError.

A real receiver can be handed a frame cut off at any byte — a short
read, a clipped datagram. :func:`decode_bucket` must answer every such
frame with :class:`WireFormatError` (carrying channel/offset
provenance), never a bare ``struct.error``/``IndexError`` leaking out
of the parser. These tests cut real encoded frames at *every* prefix
length and hand-build bodies that overrun each individual header field,
re-sealed with a valid CRC-32 so they reach the body parser.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.broadcast.pointers import compile_program
from repro.core.optimal import solve
from repro.io.wire import (
    DecodedBucket,
    WireFormatError,
    decode_bucket,
    encode_program,
)
from repro.tree.builders import paper_example_tree


def reseal(body: bytes) -> bytes:
    """A version-1 frame around ``body`` with a valid CRC-32."""
    return bytes([0xB1]) + zlib.crc32(body).to_bytes(4, "big") + body


@pytest.fixture(scope="module")
def program():
    return compile_program(solve(paper_example_tree(), channels=2).schedule)


@pytest.fixture(scope="module")
def frames_v1(program):
    return [f for row in encode_program(program) for f in row]


class TestEveryPrefix:
    def test_every_v1_prefix_raises_wire_format_error(self, frames_v1):
        """A v1 frame cut anywhere fails its CRC (or its header check)."""
        for frame in frames_v1:
            for cut in range(len(frame)):
                with pytest.raises(WireFormatError):
                    decode_bucket(frame[:cut])

    def test_every_resealed_body_prefix_fails_cleanly(self, frames_v1):
        """A body cut anywhere and re-sealed passes the CRC, so only the
        parser's guards stand; it may truncate into a *valid* shorter
        frame (padding is zeros), but must never leak a
        non-WireFormatError."""
        for frame in frames_v1:
            body = frame[5:]
            for cut in range(len(body)):
                try:
                    bucket = decode_bucket(reseal(body[:cut]))
                except WireFormatError:
                    continue
                assert isinstance(bucket, DecodedBucket)


class TestHeaderBoundaries:
    """Targeted cuts at each boundary of the frame layout."""

    def test_empty_frame(self):
        with pytest.raises(WireFormatError, match="empty frame"):
            decode_bucket(b"")

    def test_v1_header_cut(self):
        # Marker present, CRC incomplete: cuts at bytes 1..4.
        frame = bytes([0xB1, 0x00, 0x00, 0x00])
        with pytest.raises(WireFormatError, match="version-1 header"):
            decode_bucket(frame)

    def test_unknown_version_byte(self):
        with pytest.raises(WireFormatError, match="unknown wire version"):
            decode_bucket(bytes([0x7F, 1, 2, 3]))

    def test_fixed_header_cut(self):
        # Body shorter than kind/next-offset/label-length.
        with pytest.raises(WireFormatError, match="fixed header"):
            decode_bucket(reseal(bytes([0, 0, 0])))

    def test_label_overrun(self):
        body = struct.pack(">BHB", 2, 0, 10) + b"shor"
        with pytest.raises(WireFormatError, match="label overruns"):
            decode_bucket(reseal(body))

    def test_data_payload_header_overrun(self):
        body = struct.pack(">BHB", 2, 0, 1) + b"A" + b"\x00"  # 1 of 2 bytes
        with pytest.raises(WireFormatError, match="payload header"):
            decode_bucket(reseal(body))

    def test_data_payload_overrun(self):
        body = struct.pack(">BHB", 2, 0, 1) + b"A" + struct.pack(">H", 9) + b"xy"
        with pytest.raises(WireFormatError, match="payload overruns"):
            decode_bucket(reseal(body))

    def test_pointer_count_missing(self):
        body = struct.pack(">BHB", 1, 0, 1) + b"A"
        with pytest.raises(WireFormatError, match="pointer count"):
            decode_bucket(reseal(body))

    def test_pointer_record_overrun(self):
        body = struct.pack(">BHB", 1, 0, 1) + b"A" + bytes([1]) + b"\x02\x00"
        with pytest.raises(WireFormatError, match="pointer record"):
            decode_bucket(reseal(body))

    def test_routing_key_overrun(self):
        pointer = struct.pack(">BHB", 2, 5, 8) + b"AB"  # 2 of 8 key bytes
        body = struct.pack(">BHB", 1, 0, 1) + b"A" + bytes([1]) + pointer
        with pytest.raises(WireFormatError, match="routing key overruns"):
            decode_bucket(reseal(body))

    def test_unknown_bucket_type_in_v0_range(self):
        # A bare body (type byte 3, no 0xB1 marker) is not a frame.
        with pytest.raises(WireFormatError, match="unknown wire version"):
            decode_bucket(bytes([3, 0, 0, 0]))

    def test_unknown_bucket_type(self):
        with pytest.raises(WireFormatError, match="unknown bucket type"):
            decode_bucket(reseal(bytes([3, 0, 0, 0])))


class TestProvenance:
    def test_errors_carry_channel_and_offset(self, frames_v1):
        with pytest.raises(WireFormatError, match=r"channel 2.*offset 7"):
            decode_bucket(frames_v1[0][:10], channel=2, offset=7)

    def test_errors_without_provenance_stay_terse(self):
        with pytest.raises(WireFormatError) as excinfo:
            decode_bucket(b"")
        assert "channel" not in str(excinfo.value)

"""The decode memo: each distinct frame is parsed once, errors never.

:func:`decode_bucket` keeps successful parses in a bounded memo keyed by
the exact frame bytes. These tests pin its contract: a failed parse is
never cached and keeps its channel/offset provenance on every call, a
shared result is immutable, the memo never outgrows its bound, and a
memoized decode equals a cold parse for every frame a program airs and
for every damaged copy of one.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.pointers import compile_program
from repro.core.optimal import solve
from repro.faults import corrupt_frame
from repro.io import wire
from repro.io.wire import WireFormatError, decode_bucket, encode_program
from repro.tree.builders import paper_example_tree

from .test_wire_properties import COMMON, tree_specs


def reseal(body: bytes) -> bytes:
    """A version-1 frame around ``body`` with a valid CRC-32."""
    return bytes([0xB1]) + zlib.crc32(body).to_bytes(4, "big") + body


def outcome(frame: bytes, **where):
    """What a receiver gets: the bucket, or the error's message."""
    try:
        return decode_bucket(frame, **where)
    except WireFormatError as error:
        return f"error: {error}"


@pytest.fixture(scope="module")
def frames():
    program = compile_program(solve(paper_example_tree(), channels=2).schedule)
    return encode_program(program)


class TestErrorsAreNeverCached:
    def test_corrupt_bytes_raise_with_provenance_on_every_call(self, frames):
        damaged = corrupt_frame(frames[1][2], np.random.default_rng(4))
        before = wire._parse_frame.cache_info()
        for _ in range(3):
            with pytest.raises(
                WireFormatError, match=r"checksum mismatch \(channel 2, offset 3\)"
            ):
                decode_bucket(damaged, channel=2, offset=3)
        after = wire._parse_frame.cache_info()
        assert after.hits == before.hits
        assert after.misses == before.misses + 3

    def test_a_memoized_frame_still_names_each_airing_of_its_damage(self, frames):
        frame = frames[0][0]
        decode_bucket(frame)
        truncated = frame[:10]
        for channel, offset in ((1, 1), (2, 7)):
            with pytest.raises(
                WireFormatError, match=rf"\(channel {channel}, offset {offset}\)"
            ):
                decode_bucket(truncated, channel=channel, offset=offset)

    def test_malformed_body_keeps_its_message_and_cause(self):
        body = struct.pack(">BHB", 0, 0, 1) + b"\xff"
        with pytest.raises(WireFormatError) as caught:
            decode_bucket(reseal(body), channel=1, offset=4)
        assert str(caught.value) == "label is not valid UTF-8 (channel 1, offset 4)"
        assert isinstance(caught.value.__cause__, UnicodeDecodeError)


class TestSharedResults:
    def test_repeated_frame_returns_an_equal_frozen_bucket(self, frames):
        root = next(f for row in frames for f in row if decode_bucket(f).kind == "index")
        first = decode_bucket(root, channel=1, offset=2)
        again = decode_bucket(bytes(root), channel=2, offset=9)
        assert again == first
        assert isinstance(again.pointers, tuple) and again.pointers
        with pytest.raises(FrozenInstanceError):
            again.label = "mutated"
        with pytest.raises(FrozenInstanceError):
            again.pointers[0].offset = 0

    def test_mutable_byte_buffers_decode_like_bytes(self, frames):
        frame = frames[0][1]
        assert decode_bucket(bytearray(frame)) == decode_bucket(frame)
        assert decode_bucket(memoryview(frame)) == decode_bucket(frame)


class TestBound:
    def test_memo_never_holds_more_than_its_bound(self):
        wire._parse_frame.cache_clear()
        assert wire._parse_frame.cache_info().maxsize == wire._MEMO_SIZE
        # Distinct empty buckets: one per next-cycle offset.
        for offset in range(wire._MEMO_SIZE + 100):
            decode_bucket(reseal(struct.pack(">BHB", 0, offset, 0) + bytes(8)))
        assert wire._parse_frame.cache_info().currsize <= wire._MEMO_SIZE


class TestMemoEqualsColdParse:
    @settings(max_examples=25, **COMMON)
    @given(
        tree_specs,
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_every_aired_and_damaged_frame(self, tree, channels, seed):
        program = compile_program(solve(tree, channels=channels).schedule)
        rng = np.random.default_rng(seed)
        for channel, row in enumerate(encode_program(program), start=1):
            for slot, frame in enumerate(row, start=1):
                for airing in (frame, corrupt_frame(frame, rng)):
                    outcome(airing)  # warm the memo from another location
                    memoized = outcome(airing, channel=channel, offset=slot)
                    wire._parse_frame.cache_clear()
                    cold = outcome(airing, channel=channel, offset=slot)
                    assert memoized == cold

"""Unit tests for the binary bucket wire format, including corruption
(failure-injection) cases."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.broadcast.pointers import BroadcastProgram, compile_program
from repro.core.optimal import solve
from repro.io import wire
from repro.io.wire import (
    DEFAULT_BUCKET_SIZE,
    WireFormatError,
    decode_bucket,
    decode_cycle,
    encode_program,
    index_bucket_size,
    max_fanout_for_bucket_size,
)
from repro.tree.alphabetic import optimal_alphabetic_tree
from repro.workloads.catalogs import stock_catalog


def reseal(body: bytes) -> bytes:
    """A version-1 frame around ``body`` with a valid CRC-32.

    Structural attacks must reach the body parser, so the mutated body
    is re-sealed; an unsealed mutation trips the checksum first.
    """
    return bytes([0xB1]) + zlib.crc32(body).to_bytes(4, "big") + body


@pytest.fixture
def program(fig1_tree):
    return compile_program(solve(fig1_tree, channels=2).schedule)


class TestEncodeDecode:
    def test_frames_have_fixed_size(self, program):
        frames = encode_program(program, bucket_size=80)
        for row in frames:
            for frame in row:
                assert len(frame) == 80

    def test_round_trip_preserves_structure(self, program):
        decoded = decode_cycle(encode_program(program))
        for channel_row, bucket_row in zip(decoded, program.buckets):
            for parsed, original in zip(channel_row, bucket_row):
                if original.node is None:
                    assert parsed.kind == "empty"
                elif original.node.is_index:
                    assert parsed.kind == "index"
                    assert parsed.label == original.node.label
                    assert len(parsed.pointers) == len(
                        original.child_pointers
                    )
                    for got, expected in zip(
                        parsed.pointers, original.child_pointers
                    ):
                        assert got.channel == expected.channel
                        assert got.offset == expected.offset
                else:
                    assert parsed.kind == "data"
                    assert parsed.label == original.node.label
                    assert parsed.payload == f"item:{parsed.label}".encode()

    def test_next_cycle_offsets_survive(self, program):
        decoded = decode_cycle(encode_program(program))
        for slot_index, parsed in enumerate(decoded[0]):
            original = program.buckets[0][slot_index]
            assert parsed.next_cycle_offset == original.next_cycle_pointer.offset
        for parsed in decoded[1]:
            assert parsed.next_cycle_offset == 0

    def test_routing_keys_are_subtree_maxima(self, program, fig1_tree):
        decoded = decode_cycle(encode_program(program))
        root_channel, root_slot = program.schedule.position(fig1_tree.root)
        root = decoded[root_channel - 1][root_slot - 1]
        # Root children: subtree {A,B} -> max 'B'; subtree {C,D,E} -> 'E'.
        assert [p.key_hi for p in root.pointers] == ["B", "E"]


class TestEncodeCache:
    """A program encoded twice keeps its frames; once, keeps none."""

    @staticmethod
    def count_encodes(monkeypatch) -> list:
        calls = []
        real = wire._encode_bucket

        def counted(bucket, bucket_size, max_keys):
            calls.append(bucket_size)
            return real(bucket, bucket_size, max_keys)

        monkeypatch.setattr(wire, "_encode_bucket", counted)
        return calls

    def test_the_third_call_encodes_nothing(self, program, monkeypatch):
        calls = self.count_encodes(monkeypatch)
        cells = program.channels * program.cycle_length
        first = encode_program(program)
        assert len(calls) == cells
        assert program._frames[DEFAULT_BUCKET_SIZE][1] is None
        assert encode_program(program) == first
        assert len(calls) == 2 * cells
        assert encode_program(program) == first
        assert len(calls) == 2 * cells
        # Another bucket size is another encoding, kept on its own.
        assert encode_program(program, bucket_size=80) != first
        encode_program(program, bucket_size=80)
        assert encode_program(program, bucket_size=80)
        assert len(calls) == 4 * cells

    def test_callers_get_lists_of_their_own(self, program):
        encode_program(program)
        frames = encode_program(program)
        expected = [list(row) for row in frames]
        frames[0][0] = b"tampered"
        frames.pop()
        assert encode_program(program) == expected

    def test_a_new_grid_is_encoded_again(self, program, monkeypatch):
        encode_program(program)
        frames = encode_program(program)
        calls = self.count_encodes(monkeypatch)
        program.buckets = compile_program(program.schedule).buckets
        assert encode_program(program) == frames
        assert len(calls) == program.channels * program.cycle_length

    def test_programs_do_not_share_a_cache(self, program, monkeypatch):
        encode_program(program)
        encode_program(program)
        calls = self.count_encodes(monkeypatch)
        twin = BroadcastProgram(program.schedule, program.buckets)
        assert encode_program(twin) == encode_program(program)
        assert len(calls) == program.channels * program.cycle_length


class TestSizeConstraints:
    def test_oversized_content_rejected(self, program):
        with pytest.raises(WireFormatError, match="exceeds"):
            encode_program(program, bucket_size=8)

    def test_size_arithmetic_consistent(self):
        for fanout in (2, 3, 5, 10):
            needed = index_bucket_size(fanout)
            assert max_fanout_for_bucket_size(needed) >= fanout
            assert max_fanout_for_bucket_size(needed - 1) < fanout or (
                # the label/key estimate is an upper bound, so a one-byte
                # shortfall may still fit smaller actual labels
                True
            )

    def test_sv96_fanout_tuning_end_to_end(self):
        """Pick the fanout from the packet size, build, encode: fits."""
        rng = np.random.default_rng(3)
        items = stock_catalog(rng, count=20)
        bucket_size = 120
        fanout = max_fanout_for_bucket_size(bucket_size)
        assert fanout >= 2
        tree = optimal_alphabetic_tree(
            [i.label for i in items],
            [i.weight for i in items],
            fanout=fanout,
            keys=[i.key for i in items],
        )
        program = compile_program(solve(tree, channels=2).schedule)
        frames = encode_program(program, bucket_size=bucket_size)
        assert all(len(f) == bucket_size for row in frames for f in row)


class TestCorruption:
    """Failure injection: every malformed frame fails loudly.

    Structural attacks mutate the body and re-seal it (:func:`reseal`)
    — an unsealed mutation trips the checksum first, which
    TestVersioning covers separately.
    """

    def test_truncated_frame(self):
        with pytest.raises(WireFormatError, match="shorter"):
            decode_bucket(b"\xb1\x00")

    def test_unknown_version_byte(self, program):
        frame = bytearray(encode_program(program)[0][0])
        frame[0] = 9
        with pytest.raises(WireFormatError, match="unknown wire version"):
            decode_bucket(bytes(frame))

    def test_label_overrun(self):
        # type=index, next=0, label_len=200 but only 4 header bytes exist.
        frame = reseal(b"\x01\x00\x00\xc8" + b"\x00" * 10)
        with pytest.raises(WireFormatError, match="label overruns"):
            decode_bucket(frame)

    def test_pointer_record_overrun(self, program, fig1_tree):
        root_channel, root_slot = program.schedule.position(fig1_tree.root)
        frames = encode_program(program)
        body = bytearray(frames[root_channel - 1][root_slot - 1][5:])
        # Inflate the pointer count byte past the actual records.
        label_length = body[3]
        body[4 + label_length] = 250
        with pytest.raises(WireFormatError, match="overruns"):
            decode_bucket(reseal(bytes(body)))

    def test_data_payload_overrun(self, program, fig1_tree):
        target = fig1_tree.find("A")
        channel, slot = program.schedule.position(target)
        frames = encode_program(program)
        body = bytearray(frames[channel - 1][slot - 1][5:])
        label_length = body[3]
        # Corrupt the payload length to exceed the frame.
        body[4 + label_length] = 0xFF
        body[5 + label_length] = 0xFF
        with pytest.raises(WireFormatError, match="payload overruns"):
            decode_bucket(reseal(bytes(body)))


class TestVersioning:
    """The version-1 header: marker byte and checksum."""

    def test_default_frames_are_version_1(self, program):
        frame = encode_program(program)[0][0]
        assert frame[0] == 0xB1

    def test_any_flipped_body_byte_trips_the_checksum(self, program):
        frames = encode_program(program)
        frame = bytearray(frames[0][0])
        for position in range(5, len(frame)):
            damaged = bytearray(frame)
            damaged[position] ^= 0x55
            with pytest.raises(WireFormatError, match="checksum mismatch"):
                decode_bucket(bytes(damaged))

    def test_checksum_error_carries_channel_and_offset(self, program):
        frame = bytearray(encode_program(program)[0][2])
        frame[-1] ^= 0x01
        with pytest.raises(
            WireFormatError, match=r"channel 2, offset 5"
        ):
            decode_bucket(bytes(frame), channel=2, offset=5)

"""Binary bucket encoding — the broadcast's wire format (§2.1).

The paper's medium transmits fixed-size *buckets*; an index bucket must
carry its whole pointer table, which is exactly why [SV96] adjusts the
tree fanout "such that a tree node can fit in a wireless packet of any
size". This module makes that constraint concrete:

* :func:`encode_program` serialises a compiled
  :class:`~repro.broadcast.BroadcastProgram` into one ``bucket_size``-
  byte frame per (channel, slot) cell;
* :func:`decode_bucket` parses a frame back into a
  :class:`DecodedBucket` — everything a receiver needs and nothing the
  object graph knows;
* :func:`max_fanout_for_bucket_size` inverts the size arithmetic, the
  number [SV96] tunes the tree with.

Frame layout (version 1, big-endian, ASCII-safe labels/keys):

====== ======================================================
offset content
====== ======================================================
0      version marker ``0xB1`` (version 1)
1–4    CRC-32 of everything after this field (body + padding)
5      bucket type: 0 empty, 1 index, 2 data
6–7    next-cycle pointer offset (0 when absent; channel-1 only)
8      label length ``L`` (0–255)
9–     label bytes
..     index: pointer count ``n``, then per pointer
       ``channel:u8, offset:u16, key length:u8, key bytes`` —
       the key is the *max key* of the child's subtree, so a
       receiver routes by key comparison alone
       data: payload length ``u16`` + payload bytes
pad    zeros up to ``bucket_size``
====== ======================================================

This is the only bucket format: :func:`decode_bucket` rejects a frame
whose first byte is not the ``0xB1`` marker. The checksum is what lets
an unreliable channel's payload corruption (:mod:`repro.faults`) be
*detected* instead of silently mis-routing a client: any flipped byte
makes :func:`decode_bucket` raise :class:`WireFormatError` carrying the
channel/offset the frame came from.

Every frame is exactly ``bucket_size`` bytes; content that does not fit
raises :class:`WireFormatError` instead of silently truncating — the
same hard edge a real MAC layer has.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from ..broadcast.pointers import BroadcastProgram
from ..exceptions import ReproError
from ..tree.node import DataNode, IndexNode, Node

__all__ = [
    "WireFormatError",
    "DecodedPointer",
    "DecodedBucket",
    "encode_bucket",
    "decode_bucket",
    "encode_program",
    "decode_cycle",
    "index_bucket_size",
    "max_fanout_for_bucket_size",
    "AirFrame",
    "encode_air_frame",
    "FrameStreamDecoder",
]

DEFAULT_BUCKET_SIZE = 96

_MAGIC_V1 = 0xB1
_V1_HEADER = 5  # marker byte + CRC-32

_TYPE_EMPTY = 0
_TYPE_INDEX = 1
_TYPE_DATA = 2


class WireFormatError(ReproError):
    """A bucket's content does not fit the frame, or a frame is corrupt."""


@dataclass(frozen=True)
class DecodedPointer:
    """A received (channel, offset) pointer with its routing key."""

    channel: int
    offset: int
    key_hi: str


@dataclass
class DecodedBucket:
    """A parsed frame: what a receiver knows about one bucket."""

    kind: str  # "empty" | "index" | "data"
    label: str = ""
    next_cycle_offset: int = 0
    pointers: list[DecodedPointer] = field(default_factory=list)
    payload: bytes = b""


def _subtree_max_key(node: Node) -> str:
    """The largest routing key under ``node`` (keys default to labels)."""
    best = ""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, DataNode):
            key = str(current.key) if current.key is not None else current.label
            best = max(best, key)
        else:
            assert isinstance(current, IndexNode)
            stack.extend(current.children)
    return best


def encode_bucket(bucket, bucket_size: int = DEFAULT_BUCKET_SIZE) -> bytes:
    """Serialise one :class:`~repro.broadcast.bucket.Bucket` to a frame."""
    next_offset = (
        bucket.next_cycle_pointer.offset if bucket.next_cycle_pointer else 0
    )
    if not 0 <= next_offset <= 0xFFFF:
        raise WireFormatError(f"next-cycle offset {next_offset} out of range")

    if bucket.node is None:
        body = b""
        kind = _TYPE_EMPTY
        label = b""
    else:
        label = bucket.node.label.encode()
        if len(label) > 255:
            raise WireFormatError("label longer than 255 bytes")
        if isinstance(bucket.node, IndexNode):
            kind = _TYPE_INDEX
            parts = [struct.pack(">B", len(bucket.child_pointers))]
            for pointer, child in zip(
                bucket.child_pointers, bucket.node.children
            ):
                key = _subtree_max_key(child).encode()
                if len(key) > 255:
                    raise WireFormatError("routing key longer than 255 bytes")
                if not 0 < pointer.offset <= 0xFFFF:
                    raise WireFormatError(
                        f"child offset {pointer.offset} out of range"
                    )
                parts.append(
                    struct.pack(">BHB", pointer.channel, pointer.offset, len(key))
                    + key
                )
            body = b"".join(parts)
        else:
            kind = _TYPE_DATA
            payload = f"item:{bucket.node.label}".encode()
            body = struct.pack(">H", len(payload)) + payload

    content = struct.pack(">BHB", kind, next_offset, len(label)) + label + body
    if _V1_HEADER + len(content) > bucket_size:
        raise WireFormatError(
            f"bucket content ({_V1_HEADER + len(content)} bytes) exceeds the "
            f"{bucket_size}-byte frame; lower the tree fanout or raise "
            "the bucket size"
        )
    padded = content + b"\x00" * (bucket_size - _V1_HEADER - len(content))
    return struct.pack(">BI", _MAGIC_V1, zlib.crc32(padded)) + padded


def _decode_text(data: bytes, what: str) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as error:
        raise WireFormatError(f"{what} is not valid UTF-8") from error


def _frame_context(channel: int | None, offset: int | None) -> str:
    """Human-readable provenance suffix for decode errors."""
    parts = []
    if channel is not None:
        parts.append(f"channel {channel}")
    if offset is not None:
        parts.append(f"offset {offset}")
    return f" ({', '.join(parts)})" if parts else ""


def decode_bucket(
    frame: bytes, *, channel: int | None = None, offset: int | None = None
) -> DecodedBucket:
    """Parse one frame; raises :class:`WireFormatError` on corruption.

    The CRC-32 is verified first — a mismatch means the channel damaged
    the frame in flight — and the body is then parsed with a length
    guard before every field. ``channel``/``offset`` are optional
    provenance, included in every error so a receiver's logs say *which
    airing* was bad.
    """
    where = _frame_context(channel, offset)
    try:
        return _decode_frame(frame, where)
    except WireFormatError:
        raise
    except (struct.error, IndexError, ValueError) as error:
        # Belt-and-braces: every truncation *should* hit an explicit
        # length guard above a struct read, but a short or mangled frame
        # must never surface a bare parsing exception to a receiver.
        raise WireFormatError(
            f"truncated or malformed frame{where}: {error}"
        ) from error


def _decode_frame(frame: bytes, where: str) -> DecodedBucket:
    if not frame:
        raise WireFormatError(f"empty frame{where}")
    if frame[0] != _MAGIC_V1:
        raise WireFormatError(
            f"unknown wire version byte {frame[0]:#04x}{where}"
        )
    if len(frame) < _V1_HEADER:
        raise WireFormatError(f"frame shorter than the version-1 header{where}")
    (stored,) = struct.unpack(">I", frame[1:_V1_HEADER])
    body = frame[_V1_HEADER:]
    actual = zlib.crc32(body)
    if stored != actual:
        raise WireFormatError(
            f"checksum mismatch{where}: stored {stored:#010x}, "
            f"computed {actual:#010x} — frame corrupted in flight"
        )
    return _decode_body(body, where)


def _decode_body(frame: bytes, where: str = "") -> DecodedBucket:
    """Parse a checksum-verified body, guarding every field's length.

    A sender holding the CRC can still seal a malformed body, so every
    read is bounds-checked before it happens.
    """
    if len(frame) < 4:
        raise WireFormatError(f"frame shorter than the fixed header{where}")
    kind, next_offset, label_length = struct.unpack(">BHB", frame[:4])
    cursor = 4
    if cursor + label_length > len(frame):
        raise WireFormatError(f"label overruns the frame{where}")
    label = _decode_text(frame[cursor:cursor + label_length], "label")
    cursor += label_length

    if kind == _TYPE_EMPTY:
        return DecodedBucket("empty", next_cycle_offset=next_offset)
    if kind == _TYPE_DATA:
        if cursor + 2 > len(frame):
            raise WireFormatError(
                f"data payload header overruns the frame{where}"
            )
        (payload_length,) = struct.unpack(">H", frame[cursor:cursor + 2])
        cursor += 2
        if cursor + payload_length > len(frame):
            raise WireFormatError(f"data payload overruns the frame{where}")
        payload = frame[cursor:cursor + payload_length]
        return DecodedBucket(
            "data", label=label, next_cycle_offset=next_offset, payload=payload
        )
    if kind == _TYPE_INDEX:
        if cursor >= len(frame):
            raise WireFormatError(f"pointer count missing{where}")
        count = frame[cursor]
        cursor += 1
        pointers = []
        for _ in range(count):
            if cursor + 4 > len(frame):
                raise WireFormatError(
                    f"pointer record overruns the frame{where}"
                )
            channel, offset, key_length = struct.unpack(
                ">BHB", frame[cursor:cursor + 4]
            )
            cursor += 4
            if cursor + key_length > len(frame):
                raise WireFormatError(f"routing key overruns the frame{where}")
            key = _decode_text(frame[cursor:cursor + key_length], "routing key")
            cursor += key_length
            pointers.append(DecodedPointer(channel, offset, key))
        return DecodedBucket(
            "index",
            label=label,
            next_cycle_offset=next_offset,
            pointers=pointers,
        )
    raise WireFormatError(f"unknown bucket type {kind}{where}")


def encode_program(
    program: BroadcastProgram, bucket_size: int = DEFAULT_BUCKET_SIZE
) -> list[list[bytes]]:
    """Serialise a whole cycle: ``frames[channel-1][slot-1]``."""
    return [
        [encode_bucket(bucket, bucket_size) for bucket in row]
        for row in program.buckets
    ]


def decode_cycle(frames: list[list[bytes]]) -> list[list[DecodedBucket]]:
    """Parse every frame of an encoded cycle."""
    return [
        [
            decode_bucket(frame, channel=channel, offset=slot)
            for slot, frame in enumerate(row, start=1)
        ]
        for channel, row in enumerate(frames, start=1)
    ]


def index_bucket_size(
    fanout: int, label_bytes: int = 8, key_bytes: int = 8
) -> int:
    """Frame bytes an index bucket with ``fanout`` pointers needs."""
    return _V1_HEADER + 4 + label_bytes + 1 + fanout * (4 + key_bytes)


def max_fanout_for_bucket_size(
    bucket_size: int, label_bytes: int = 8, key_bytes: int = 8
) -> int:
    """The largest tree fanout whose index bucket fits ``bucket_size``.

    This is the [SV96] tuning knob: pick the k-ary alphabetic tree whose
    nodes fill — but do not overflow — a wireless packet.
    """
    budget = bucket_size - _V1_HEADER - 4 - label_bytes - 1
    per_pointer = 4 + key_bytes
    return max(0, budget // per_pointer)


# ---------------------------------------------------------------------------
# Transport envelope — how a live station airs frames over a byte stream.
# ---------------------------------------------------------------------------

_AIR_MAGIC = 0xAE  # version-1 envelope
_AIR_MAGIC_V2 = 0xAF  # version-2 envelope: v1 + schedule-version stamp
_AIR_MAGIC_V3 = 0xB0  # version-3 envelope: v2 + trace context
_AIR_HEADER = struct.Struct(">BBBIH")  # magic, status, channel, slot, length
_AIR_HEADER_V2 = struct.Struct(">BBBIHI")  # … + schedule version (u32)
_AIR_HEADER_V3 = struct.Struct(">BBBIHIII")  # … + trace id, span id (u32 each)

_AIR_OK = 0
_AIR_LOST = 1

_MAX_AIR_PAYLOAD = 0xFFFF
_MAX_SCHEDULE_VERSION = 0xFFFFFFFF


@dataclass(frozen=True)
class AirFrame:
    """One airing as it crosses a transport: provenance + frame bytes.

    The bucket wire format (:func:`encode_bucket`) is position-blind —
    a frame does not say when or where it aired. A live receiver needs
    exactly that to drive its pointer walk, so the station wraps each
    airing in a 9-byte envelope carrying the channel, the absolute slot
    (1-based, station air time) and a status byte: ``lost`` marks an
    airing the channel dropped (the client was tuned in and heard
    nothing — the envelope is how a *simulated* unreliable medium tells
    a real socket client about an absence). Corrupted airings travel as
    ordinary payloads; the bucket CRC is what detects those, end to
    end, exactly as over real air.

    ``schedule_version`` is the :mod:`repro.sched` version of the plan
    that produced the airing. ``0`` means unversioned: the envelope
    encodes to the original 9-byte version-1 layout, byte-identical to
    pre-versioning stations. A positive version selects the 13-byte
    version-2 envelope; receivers decode both, which is how a cutover
    becomes *visible* to a tuner mid-walk instead of silently swapping
    the pointer graph under it.

    ``trace_id``/``span_id`` are the causal trace context of the
    publish that put this schedule on the air (see
    :mod:`repro.obs.spans`). ``(0, 0)`` means untraced and the frame
    encodes as v1/v2 unchanged; a present context selects the 21-byte
    version-3 envelope, which is how one trace links a server replan
    through the station cutover to every tuner walk it restarts.
    """

    channel: int
    absolute_slot: int
    payload: bytes = b""
    lost: bool = False
    schedule_version: int = 0
    trace_id: int = 0
    span_id: int = 0


def encode_air_frame(air: AirFrame) -> bytes:
    """Serialise one envelope (+ payload) for a byte-stream transport.

    Unversioned airings (``schedule_version == 0``) emit the version-1
    envelope unchanged; versioned airings emit version 2; airings
    carrying a trace context emit version 3 — so an untraced,
    unversioned station stays byte-identical to the pre-versioning
    wire, frame for frame.
    """
    if not 1 <= air.channel <= 0xFF:
        raise WireFormatError(f"air channel {air.channel} out of range")
    if not 1 <= air.absolute_slot <= 0xFFFFFFFF:
        raise WireFormatError(
            f"absolute slot {air.absolute_slot} out of range"
        )
    if len(air.payload) > _MAX_AIR_PAYLOAD:
        raise WireFormatError("air payload exceeds 64 KiB")
    if air.lost and air.payload:
        raise WireFormatError("a lost airing cannot carry a payload")
    if not 0 <= air.schedule_version <= _MAX_SCHEDULE_VERSION:
        raise WireFormatError(
            f"schedule version {air.schedule_version} out of range"
        )
    if not 0 <= air.trace_id <= 0xFFFFFFFF:
        raise WireFormatError(f"trace id {air.trace_id} out of range")
    if not 0 <= air.span_id <= 0xFFFFFFFF:
        raise WireFormatError(f"span id {air.span_id} out of range")
    status = _AIR_LOST if air.lost else _AIR_OK
    if air.trace_id or air.span_id:
        header = _AIR_HEADER_V3.pack(
            _AIR_MAGIC_V3, status, air.channel, air.absolute_slot,
            len(air.payload), air.schedule_version,
            air.trace_id, air.span_id,
        )
    elif air.schedule_version == 0:
        header = _AIR_HEADER.pack(
            _AIR_MAGIC, status, air.channel, air.absolute_slot,
            len(air.payload),
        )
    else:
        header = _AIR_HEADER_V2.pack(
            _AIR_MAGIC_V2, status, air.channel, air.absolute_slot,
            len(air.payload), air.schedule_version,
        )
    return header + air.payload


class FrameStreamDecoder:
    """Incremental envelope parser for a byte-stream transport.

    TCP delivers bytes, not messages: one ``read()`` may return half an
    envelope, or three and a half. Feed whatever arrives to
    :meth:`feed`; it returns every envelope completed so far and
    buffers the partial tail for the next chunk. A byte that cannot
    begin an envelope raises :class:`WireFormatError` — on a stream
    transport there is no resynchronising past garbage.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of their envelope."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[AirFrame]:
        """Absorb ``data``; return the envelopes it completed, in order.

        All three envelope versions are accepted, per frame: a stream
        may interleave version-1, version-2 and version-3 airings (a
        station mid-way through adopting versioning or tracing does
        exactly that).
        """
        self._buffer.extend(data)
        frames: list[AirFrame] = []
        cursor = 0
        while len(self._buffer) - cursor >= 1:
            magic = self._buffer[cursor]
            if magic == _AIR_MAGIC:
                header = _AIR_HEADER
            elif magic == _AIR_MAGIC_V2:
                header = _AIR_HEADER_V2
            elif magic == _AIR_MAGIC_V3:
                header = _AIR_HEADER_V3
            else:
                raise WireFormatError(
                    f"bad air-envelope magic {magic:#04x}; stream is "
                    "desynchronised"
                )
            size = header.size
            if len(self._buffer) - cursor < size:
                break  # header still in flight
            fields = header.unpack_from(self._buffer, cursor)
            trace_id = span_id = 0
            if magic == _AIR_MAGIC:
                _, status, channel, slot, length = fields
                version = 0
            elif magic == _AIR_MAGIC_V2:
                _, status, channel, slot, length, version = fields
                if version == 0:
                    raise WireFormatError(
                        "version-2 air envelope carries schedule version 0"
                    )
            else:
                (
                    _, status, channel, slot, length, version,
                    trace_id, span_id,
                ) = fields
                if trace_id == 0 and span_id == 0:
                    raise WireFormatError(
                        "version-3 air envelope carries no trace context"
                    )
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

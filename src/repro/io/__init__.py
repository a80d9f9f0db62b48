"""Interchange formats: the binary on-air bucket encoding (with a
frame-level receiver) and JSON persistence for trees and schedules."""

from .json_io import (
    PersistenceError,
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from .wire import (
    AirFrame,
    DecodedBucket,
    DecodedPointer,
    FrameStreamDecoder,
    WireFormatError,
    decode_bucket,
    decode_cycle,
    encode_air_frame,
    encode_bucket,
    encode_program,
    index_bucket_size,
    max_fanout_for_bucket_size,
)
from .wire_client import wire_walk

__all__ = [
    "WireFormatError",
    "DecodedBucket",
    "DecodedPointer",
    "encode_bucket",
    "decode_bucket",
    "encode_program",
    "decode_cycle",
    "index_bucket_size",
    "max_fanout_for_bucket_size",
    "AirFrame",
    "encode_air_frame",
    "FrameStreamDecoder",
    "wire_walk",
    "PersistenceError",
    "tree_to_dict",
    "tree_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
]

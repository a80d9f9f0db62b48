"""Trace context and schedule version on the air envelope.

Every airing crosses the transport in one fixed 21-byte envelope;
schedule version 0 means "unversioned" and trace context ``(0, 0)``
"untraced", and both round-trip like any other value.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io.wire import (
    AirFrame,
    FrameStreamDecoder,
    WireFormatError,
    encode_air_frame,
)

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestV3RoundTrip:
    @settings(max_examples=200, **COMMON)
    @given(
        channel=st.integers(min_value=1, max_value=255),
        slot=st.integers(min_value=1, max_value=0xFFFFFFFF),
        payload=st.binary(min_size=0, max_size=200),
        version=u32,
        trace_id=u32,
        span_id=u32,
    )
    def test_context_survives_the_wire(
        self, channel, slot, payload, version, trace_id, span_id
    ):
        """One layout for every airing: no field value picks the bytes."""
        air = AirFrame(
            channel=channel,
            absolute_slot=slot,
            payload=payload,
            schedule_version=version,
            trace_id=trace_id,
            span_id=span_id,
        )
        encoded = encode_air_frame(air)
        assert encoded[0] == 0xB0
        assert len(encoded) == 21 + len(payload)
        assert FrameStreamDecoder().feed(encoded) == [air]

    def test_lost_airings_carry_context_too(self):
        air = AirFrame(
            channel=3,
            absolute_slot=12,
            lost=True,
            trace_id=7,
            span_id=9,
        )
        decoded = FrameStreamDecoder().feed(encode_air_frame(air))
        assert decoded == [air]
        assert decoded[0].lost

    def test_half_present_context_is_still_context(self):
        # (trace, 0) and (0, span) are contexts; only (0, 0) is untraced.
        for trace_id, span_id in ((5, 0), (0, 5)):
            air = AirFrame(
                channel=1,
                absolute_slot=1,
                payload=b"x",
                trace_id=trace_id,
                span_id=span_id,
            )
            assert FrameStreamDecoder().feed(
                encode_air_frame(air)
            ) == [air]


class TestV3Validation:
    def test_out_of_range_ids_rejected(self):
        for field in ("trace_id", "span_id"):
            with pytest.raises(WireFormatError, match="out of range"):
                encode_air_frame(
                    AirFrame(
                        channel=1,
                        absolute_slot=1,
                        payload=b"",
                        **{field: 1 << 32},
                    )
                )

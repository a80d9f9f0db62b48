"""Unit tests for the trace-event vocabulary and the tracer sinks."""

from __future__ import annotations

import json

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    NULL_TRACER,
    AlertFired,
    ChannelHop,
    CutoverDetected,
    FaultInjected,
    JsonlTracer,
    NullTracer,
    PlannerDecision,
    RecorderTriggered,
    ReplanFinished,
    ReplanStarted,
    RingBufferTracer,
    ScheduleActivated,
    SearchProgress,
    SlotAired,
    SlotRead,
    SpanFinished,
    TeeTracer,
    WalkFinished,
    event_from_dict,
    event_to_dict,
    read_events,
)

SAMPLE_EVENTS = [
    SlotAired(channel=2, absolute_slot=47, fate="lost"),
    SlotRead(key="K007", channel=1, absolute_slot=5, outcome="corrupt"),
    ChannelHop(key="K007", from_channel=1, to_channel=2, absolute_slot=6),
    WalkFinished(
        key="K007",
        tune_slot=3,
        access_time=8,
        tuning_time=4,
        channel_switches=1,
        retries=2,
    ),
    ReplanStarted(cycle=4),
    ReplanFinished(cycle=4, seconds=0.125),
    SearchProgress(mode="best-first", nodes_expanded=2000, nodes_generated=9),
    FaultInjected(channel=3, absolute_slot=101, fate="corrupt"),
    ScheduleActivated(version=2, activate_slot=31, cycle_length=15),
    CutoverDetected(
        key="K007", from_version=1, to_version=2, absolute_slot=33, walk=4
    ),
    PlannerDecision(
        method="ptas",
        items=50_000,
        channels=4,
        gini=0.82,
        entropy=0.41,
        reason="50000 items: class-scheduling approximation",
    ),
    SpanFinished(
        trace_id=0x5D400001,
        span_id=0x5D400002,
        parent_id=0x5D400001,
        name="station.cutover",
        start_slot=32,
        end_slot=47,
        component="station",
        attrs=(("version", 2),),
    ),
    AlertFired(
        slo="access_p99",
        state="firing",
        value=41.0,
        threshold=36.0,
        window_slots=64,
        burn_rate=1.25,
    ),
    RecorderTriggered(
        reason="parity_failure",
        detail="shard 2 diverged from the simulator",
        bundle="postmortem-0001-parity-failure.json",
        events=96,
    ),
]


class TestVocabulary:
    def test_every_kind_is_registered(self):
        assert sorted(EVENT_TYPES) == sorted(
            type(event).kind for event in SAMPLE_EVENTS
        )

    @pytest.mark.parametrize(
        "event", SAMPLE_EVENTS, ids=lambda e: type(e).kind
    )
    def test_dict_round_trip(self, event):
        record = event_to_dict(event)
        assert record["kind"] == type(event).kind
        json.dumps(record)  # must be JSON-able as produced
        assert event_from_dict(record) == event

    def test_from_dict_ignores_sink_annotations(self):
        record = event_to_dict(SAMPLE_EVENTS[0])
        record["ts"] = 1234.5  # the JSONL sink's wall-clock stamp
        record["future_field"] = "whatever"
        assert event_from_dict(record) == SAMPLE_EVENTS[0]

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            event_from_dict({"kind": "nope"})

    def test_events_are_immutable(self):
        with pytest.raises(AttributeError):
            SAMPLE_EVENTS[0].fate = "ok"


class TestNullTracer:
    def test_disabled_and_free(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        NULL_TRACER.emit(SAMPLE_EVENTS[0])  # accepted, discarded


class TestRingBufferTracer:
    def test_keeps_most_recent_window(self):
        tracer = RingBufferTracer(capacity=3)
        assert tracer.enabled is True
        for slot in range(5):
            tracer.emit(SlotAired(channel=1, absolute_slot=slot))
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [event.absolute_slot for event in tracer.events] == [2, 3, 4]
        assert [event.absolute_slot for event in tracer] == [2, 3, 4]

    def test_clear_resets_window_and_drop_count(self):
        tracer = RingBufferTracer(capacity=1)
        tracer.emit(SAMPLE_EVENTS[0])
        tracer.emit(SAMPLE_EVENTS[1])
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            RingBufferTracer(capacity=0)


class TestJsonlTracer:
    def test_writes_one_stamped_record_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(str(path)) as tracer:
            for event in SAMPLE_EVENTS:
                tracer.emit(event)
            assert tracer.emitted == len(SAMPLE_EVENTS)
        records = list(read_events(str(path)))
        assert len(records) == len(SAMPLE_EVENTS)
        for record, event in zip(records, SAMPLE_EVENTS):
            assert record["kind"] == type(event).kind
            assert "ts" in record  # sink stamp, not an event field
            assert event_from_dict(record) == event

    def test_stamp_false_leaves_records_logical(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(str(path), stamp=False) as tracer:
            tracer.emit(SAMPLE_EVENTS[0])
        (record,) = read_events(str(path))
        assert "ts" not in record

    def test_rotation_never_splits_an_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(str(path), rotate_bytes=200, keep=2) as tracer:
            for slot in range(50):
                tracer.emit(SlotAired(channel=1, absolute_slot=slot))
            assert tracer.rotations > 0
        # Newest tail lives at ``path``; logrotate-style, ``.1`` is the
        # newest rotated window and higher suffixes are older; never
        # more than ``keep`` rotated files; every surviving line parses.
        assert path.exists()
        rotated = sorted(tmp_path.glob("trace.jsonl.*"), reverse=True)
        assert 1 <= len(rotated) <= 2
        survivors = [
            record
            for part in [*rotated, path]
            for record in read_events(str(part))
        ]
        slots = [record["absolute_slot"] for record in survivors]
        # The retained suffix is contiguous and ends at the last event.
        assert slots == list(range(slots[0], 50))

    def test_rejects_silly_config(self, tmp_path):
        with pytest.raises(ValueError, match="rotate_bytes"):
            JsonlTracer(str(tmp_path / "t.jsonl"), rotate_bytes=0)
        with pytest.raises(ValueError, match="keep"):
            JsonlTracer(str(tmp_path / "t.jsonl"), keep=0)

    def test_close_is_idempotent(self, tmp_path):
        tracer = JsonlTracer(str(tmp_path / "t.jsonl"))
        tracer.close()
        tracer.close()


class TestTeeTracer:
    def test_enabled_is_or_of_members(self):
        assert TeeTracer(NULL_TRACER, NULL_TRACER).enabled is False
        assert TeeTracer(NULL_TRACER, RingBufferTracer()).enabled is True
        assert TeeTracer().enabled is False

    def test_fans_out_to_enabled_members_only(self):
        ring_a = RingBufferTracer()
        ring_b = RingBufferTracer()
        tee = TeeTracer(ring_a, NULL_TRACER, ring_b)
        tee.emit(SAMPLE_EVENTS[0])
        assert ring_a.events == [SAMPLE_EVENTS[0]]
        assert ring_b.events == [SAMPLE_EVENTS[0]]


class TestJsonlTimestampPreservation:
    """Regression: re-serializing a replayed trace must keep its ts."""

    def test_fresh_events_get_stamped_once(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTracer(path) as tracer:
            tracer.emit(SAMPLE_EVENTS[0])
        [record] = list(read_events(path))
        assert "ts" in record

    def test_existing_ts_survives_a_rewrite_round_trip(self, tmp_path):
        first = str(tmp_path / "first.jsonl")
        with JsonlTracer(first) as tracer:
            for event in SAMPLE_EVENTS:
                tracer.emit(event)
        originals = list(read_events(first))
        stamps = [record["ts"] for record in originals]
        # Re-serialize the raw records through a fresh stamping tracer,
        # as a trace-rewriting tool (filter, merge, rotation compactor)
        # would; the original capture times must come through untouched.
        second = str(tmp_path / "second.jsonl")
        with JsonlTracer(second) as tracer:
            for record in originals:
                tracer.emit(record)
        rewritten = list(read_events(second))
        assert [record["ts"] for record in rewritten] == stamps
        assert rewritten == originals

    def test_typed_event_never_carries_ts_so_it_is_stamped(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTracer(path) as tracer:
            tracer.emit(SAMPLE_EVENTS[0])
            tracer.emit({"kind": "slot_read", "ts": 123.5})
        records = list(read_events(path))
        assert records[0]["ts"] != 123.5
        assert records[1]["ts"] == 123.5

    def test_stamp_false_never_adds_ts(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTracer(path, stamp=False) as tracer:
            tracer.emit(SAMPLE_EVENTS[0])
        [record] = list(read_events(path))
        assert "ts" not in record

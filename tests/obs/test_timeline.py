"""Tests for slot-timeline reconstruction and trace diffing."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.client.protocol import RecoveryPolicy
from repro.faults import FaultConfig
from repro.net import (
    build_demo_program,
    make_request_trace,
    run_loadtest,
    trace_simulator,
)
from repro.obs.events import (
    ChannelHop,
    FaultInjected,
    JsonlTracer,
    ReplanFinished,
    ReplanStarted,
    RingBufferTracer,
    SlotAired,
    SlotRead,
    WalkFinished,
)
from repro.obs.timeline import (
    build_timeline,
    diff_timelines,
    diff_trace_files,
    format_diff,
    format_timeline,
    load_timeline,
)


def _synthetic_events():
    return [
        SlotAired(channel=1, absolute_slot=1),
        SlotAired(channel=1, absolute_slot=1),  # served twice
        SlotAired(channel=2, absolute_slot=3, fate="lost"),
        FaultInjected(channel=2, absolute_slot=3, fate="lost"),
        SlotRead(key="A", channel=1, absolute_slot=1),
        SlotRead(key="B", channel=1, absolute_slot=1),
        SlotRead(key="A", channel=2, absolute_slot=3, outcome="lost"),
        ChannelHop(key="A", from_channel=1, to_channel=2, absolute_slot=3),
        ReplanStarted(cycle=1),
        ReplanFinished(cycle=1, seconds=0.01),
        WalkFinished(
            key="A",
            tune_slot=1,
            access_time=4,
            tuning_time=3,
            channel_switches=1,
            retries=1,
        ),
        WalkFinished(
            key="B",
            tune_slot=1,
            access_time=2,
            tuning_time=1,
            channel_switches=0,
            abandoned=True,
        ),
    ]


class TestBuildTimeline:
    def test_folds_events_into_cells_and_aggregates(self):
        timeline = build_timeline(_synthetic_events())
        assert timeline.events == len(_synthetic_events())
        assert timeline.unknown_events == 0
        cell = timeline.cells[(1, 1)]
        assert cell.aired == {"ok": 2}
        assert sorted(cell.reads) == [("A", "ok"), ("B", "ok")]
        assert cell.fate == "ok"
        lossy = timeline.cells[(2, 3)]
        assert lossy.fate == "lost"
        assert lossy.faults == {"lost": 1}
        assert lossy.hops == 1
        assert timeline.walks == 2
        assert timeline.abandoned == 1
        assert timeline.retries == 1
        assert timeline.replans == 1
        # Means count completed walks only.
        assert timeline.mean_access_time == 4.0
        assert timeline.mean_tuning_time == 3.0

    def test_accepts_dict_records_and_counts_unknown_kinds(self):
        timeline = build_timeline(
            [
                {"kind": "slot_read", "channel": 1, "absolute_slot": 2,
                 "key": "K", "outcome": "ok", "ts": 99.0},
                {"kind": "someday_new_event"},
            ]
        )
        assert timeline.cells[(1, 2)].reads == [("K", "ok")]
        assert timeline.unknown_events == 1

    def test_ordered_cells_run_in_air_order(self):
        timeline = build_timeline(_synthetic_events())
        coordinates = [
            (cell.channel, cell.slot) for cell in timeline.ordered_cells()
        ]
        assert coordinates == sorted(coordinates, key=lambda c: (c[1], c[0]))


class TestDiff:
    def test_read_order_does_not_matter(self):
        events = _synthetic_events()
        shuffled = list(reversed(events))
        diff = diff_timelines(
            build_timeline(events), build_timeline(shuffled)
        )
        assert diff.identical
        assert diff.first_divergence is None

    def test_first_divergence_is_earliest_in_air_order(self):
        base = _synthetic_events()
        other = [
            event
            for event in base
            if not isinstance(event, (SlotRead, ChannelHop))
        ]
        # The other trace misses every read; slot 1 diverges before 3.
        diff = diff_timelines(build_timeline(base), build_timeline(other))
        assert not diff.identical
        assert diff.first_divergence == (1, 1)
        assert [(d.channel, d.slot) for d in diff.divergences] == [
            (1, 1),
            (2, 3),
        ]
        described = diff.divergences[0].describe("live", "sim")
        assert "channel 1, slot 1" in described
        assert "sim never read it" in described

    def test_station_only_cells_never_count_as_divergence(self):
        live = build_timeline(_synthetic_events())  # airings + faults
        sim = build_timeline(
            [e for e in _synthetic_events() if isinstance(
                e, (SlotRead, ChannelHop, WalkFinished))]
        )
        diff = diff_timelines(live, sim)
        assert diff.identical
        assert diff.cells_compared == 2  # (1,1) and (2,3)


class TestFormatting:
    def test_format_timeline_table(self):
        text = format_timeline(build_timeline(_synthetic_events()))
        assert "ch" in text and "fate" in text
        assert "walks: 2 (1 abandoned, 1 retries)" in text
        assert "replans 1" in text

    def test_format_timeline_respects_limit_and_channel(self):
        timeline = build_timeline(_synthetic_events())
        limited = format_timeline(timeline, limit=1)
        assert "more cell(s)" in limited
        only_two = format_timeline(timeline, channel=2)
        rows = [
            line for line in only_two.splitlines()
            if line and line[0] == " " and line.strip()[0].isdigit()
        ]
        assert all(row.split()[0] == "2" for row in rows)

    def test_format_diff_verdicts(self):
        timeline = build_timeline(_synthetic_events())
        identical = format_diff(diff_timelines(timeline, timeline))
        assert "identical read activity" in identical
        empty = build_timeline([])
        diverged = format_diff(
            diff_timelines(timeline, empty), label_a="live", label_b="sim"
        )
        assert "first divergence: channel 1, slot 1" in diverged
        assert "live:" in diverged and "sim never read it" in diverged


class TestLiveVersusSimulator:
    """The acceptance scenario: diff a fleet trace against a replay."""

    @pytest.fixture(scope="class")
    def program(self):
        return build_demo_program(items=10, channels=2, fanout=3, seed=17)

    def test_lossless_fleet_trace_matches_the_simulator_replay(
        self, program, tmp_path
    ):
        trace = make_request_trace(program, 30, np.random.default_rng(5))
        live_path = tmp_path / "live.jsonl"
        sim_path = tmp_path / "sim.jsonl"
        with JsonlTracer(str(live_path)) as live_tracer:
            asyncio.run(
                run_loadtest(
                    program,
                    tuners=30,
                    trace=trace,
                    rng=np.random.default_rng(5),
                    arrival_rate=0.0,
                    tracer=live_tracer,
                )
            )
        with JsonlTracer(str(sim_path)) as sim_tracer:
            trace_simulator(program, trace, tracer=sim_tracer)
        diff = diff_trace_files(str(live_path), str(sim_path))
        assert diff.identical
        assert diff.walks_a == diff.walks_b == 30
        assert diff.mean_access_a == diff.mean_access_b
        assert diff.mean_tuning_a == diff.mean_tuning_b
        # The live timeline additionally narrates the station side.
        live = load_timeline(str(live_path))
        assert any(cell.aired for cell in live.cells.values())

    def test_lossy_fleet_diverges_from_the_lossless_simulator(self, program):
        trace = make_request_trace(program, 30, np.random.default_rng(5))
        live = RingBufferTracer()
        asyncio.run(
            run_loadtest(
                program,
                tuners=30,
                trace=trace,
                rng=np.random.default_rng(5),
                arrival_rate=0.0,
                faults=FaultConfig(loss=0.2, seed=11),
                policy=RecoveryPolicy(mode="retry-parent", max_cycles=8),
                tracer=live,
            )
        )
        sim = RingBufferTracer()
        trace_simulator(program, trace, tracer=sim)
        diff = diff_timelines(build_timeline(live), build_timeline(sim))
        assert not diff.identical
        channel, slot = diff.first_divergence
        # The named cell really is the earliest divergent coordinate.
        assert (channel, slot) == min(
            ((d.channel, d.slot) for d in diff.divergences),
            key=lambda c: (c[1], c[0]),
        )
        first = diff.divergences[0]
        assert first.reads_a != first.reads_b


class TestLargeTraceMemory:
    """Satellite check: timelines stay small on huge, repetitive traces.

    A long-running fleet reads the same hot coordinates (the channel-1
    probe slots) millions of times. The timeline counts reads as a
    (key, outcome) multiset per cell, so its footprint follows the
    *distinct* activity — this pins that with tracemalloc against a
    generated 200k-event stream that never materialises as a list.
    """

    def _event_stream(self, events: int, cells: int = 40, keys: int = 8):
        for index in range(events):
            yield {
                "kind": "slot_read",
                "key": f"K{index % keys:02d}",
                "channel": 1 + index % 2,
                "absolute_slot": 1 + index % cells,
                "outcome": "ok" if index % 11 else "lost",
            }

    def test_read_counts_bound_cell_memory(self):
        import tracemalloc

        events = 200_000
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        timeline = build_timeline(self._event_stream(events))
        after, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert timeline.events == events
        assert sum(
            cell.total_reads for cell in timeline.cells.values()
        ) == events
        # 40 cells × ≤16 distinct (key, outcome) pairs — far below one
        # entry per read. The RSS proxy: well under a list-of-reads
        # footprint (200k tuples ≈ tens of MB); generous slack for
        # interpreter noise.
        assert len(timeline.cells) == 40
        assert all(
            len(cell.read_counts) <= 16
            for cell in timeline.cells.values()
        )
        assert peak - before < 4 * 1024 * 1024

    def test_counted_cells_expand_compatibly(self):
        timeline = build_timeline(
            [
                {"kind": "slot_read", "key": "B", "channel": 1,
                 "absolute_slot": 2, "outcome": "ok"},
                {"kind": "slot_read", "key": "A", "channel": 1,
                 "absolute_slot": 2, "outcome": "ok"},
                {"kind": "slot_read", "key": "A", "channel": 1,
                 "absolute_slot": 2, "outcome": "ok"},
            ]
        )
        cell = timeline.cells[(1, 2)]
        assert cell.read_counts == {("A", "ok"): 2, ("B", "ok"): 1}
        # The compat view stays a sorted expanded list, and the diff
        # signature remains the sorted multiset.
        assert cell.reads == [("A", "ok"), ("A", "ok"), ("B", "ok")]
        assert cell.total_reads == 3
        assert cell.read_signature == (
            ("A", "ok"), ("A", "ok"), ("B", "ok")
        )

"""The flight recorder: bounded recall, anomaly dumps, causal chains."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.obs.events import RingBufferTracer, SlotRead
from repro.obs.recorder import (
    POSTMORTEM_DIR_ENV,
    FlightRecorder,
    bundle_span_tree,
    causal_chain,
    format_postmortem,
    load_bundle,
)
from repro.obs.spans import SpanTracer


def _chain_into(recorder, component="sched"):
    """Emit a replan → publish → cutover → walk-segment chain."""
    tracer = SpanTracer(recorder.ring(component), namespace=component)
    root = tracer.begin("replan", 1, component="server")
    root.child("store.publish", 1, component="store").end(1)
    cutover = root.child("station.cutover", 2, component="station")
    tracer.finish(
        name="walk.restart",
        trace_id=cutover.trace_id,
        parent_id=cutover.span_id,
        start_slot=9,
        end_slot=30,
        component="walk",
        attrs=(("walk", 4), ("segment", 1)),
    )
    cutover.end(8)
    root.end(8)
    return root


class TestRings:
    def test_ring_is_an_enabled_tracer(self):
        recorder = FlightRecorder()
        ring = recorder.ring("fleet")
        assert ring.enabled
        ring.emit(SlotRead(key="A", channel=1, absolute_slot=3))
        assert recorder.snapshot()["components"]["fleet"]

    def test_capacity_bounds_each_component(self):
        recorder = FlightRecorder(capacity=4)
        ring = recorder.ring("fleet")
        for slot in range(10):
            ring.emit(
                SlotRead(key="A", channel=1, absolute_slot=slot)
            )
        records = recorder.snapshot()["components"]["fleet"]
        assert len(records) == 4
        assert [r["absolute_slot"] for r in records] == [6, 7, 8, 9]

    def test_same_component_name_shares_one_ring(self):
        recorder = FlightRecorder()
        recorder.ring("x").emit(
            SlotRead(key="A", channel=1, absolute_slot=1)
        )
        recorder.ring("x").emit(
            SlotRead(key="B", channel=1, absolute_slot=2)
        )
        assert len(recorder.snapshot()["components"]["x"]) == 2

    def test_raw_dict_events_are_recorded_as_is(self):
        recorder = FlightRecorder()
        recorder.observe("fleet", {"kind": "slot_read", "key": "A"})
        assert recorder.snapshot()["components"]["fleet"] == [
            {"kind": "slot_read", "key": "A"}
        ]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(0)
        with pytest.raises(ValueError, match="keep"):
            FlightRecorder(keep=0)


class TestTrigger:
    def test_dump_writes_a_loadable_bundle(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        _chain_into(recorder)
        path = recorder.trigger("parity_failure", detail="injected")
        assert path.endswith("postmortem-0001-parity_failure.json")
        bundle = load_bundle(path)
        assert bundle["reason"] == "parity_failure"
        assert bundle["trigger"]["detail"] == "injected"
        assert bundle["components"]["sched"]

    def test_sequence_numbers_never_clobber(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        first = recorder.trigger("a")
        second = recorder.trigger("a")
        assert first != second
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 2

    def test_keep_prunes_the_oldest_bundles(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path), keep=3)
        for _ in range(5):
            recorder.trigger("a")
        names = sorted(p.name for p in tmp_path.glob("postmortem-*.json"))
        assert len(names) == 3
        assert names[0].startswith("postmortem-0003")

    def test_env_var_names_the_default_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(POSTMORTEM_DIR_ENV, str(tmp_path))
        recorder = FlightRecorder()
        path = recorder.trigger("store_error")
        assert path.startswith(str(tmp_path))
        assert (tmp_path / "postmortem-0001-store_error.json").exists()

    def test_memory_only_without_a_directory(self, monkeypatch):
        monkeypatch.delenv(POSTMORTEM_DIR_ENV, raising=False)
        recorder = FlightRecorder()
        assert recorder.trigger("a", detail="d") == ""
        assert len(recorder.triggers) == 1
        assert recorder.triggers[0].bundle == ""

    def test_trigger_lands_in_the_trace_stream(self, monkeypatch):
        monkeypatch.delenv(POSTMORTEM_DIR_ENV, raising=False)
        recorder = FlightRecorder()
        ring = RingBufferTracer()
        recorder.trigger("a", tracer=ring)
        assert [e.kind for e in ring.events] == ["recorder_triggered"]


class TestCausalChain:
    def test_chain_reads_root_to_trigger(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        _chain_into(recorder)
        bundle = load_bundle(recorder.trigger("parity_failure"))
        chain = causal_chain(bundle)
        assert [r.get("name", r.get("kind")) for r in chain] == [
            "replan",
            "station.cutover",
            "walk.restart",
            "recorder_triggered",
        ]

    def test_anchor_prefers_walk_segments(self, tmp_path):
        # The most *diagnostic* span is the walk that was on the air,
        # not whatever infra span happened to close last.
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        _chain_into(recorder)
        tracer = SpanTracer(recorder.ring("sched"), namespace="late")
        tracer.begin("server.replan", 40).end(44)  # later, walk-less
        bundle = load_bundle(recorder.trigger("alert"))
        chain = causal_chain(bundle)
        assert chain[-2]["name"] == "walk.restart"

    def test_spanless_bundle_ends_at_the_trigger_alone(self):
        recorder = FlightRecorder()
        recorder.ring("fleet").emit(
            SlotRead(key="A", channel=1, absolute_slot=1)
        )
        recorder.trigger("abandoned_spike")
        bundle = recorder.snapshot(reason="abandoned_spike")
        assert causal_chain(bundle) == []

    def test_format_names_the_trigger_and_the_rings(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        _chain_into(recorder)
        bundle = load_bundle(
            recorder.trigger("parity_failure", detail="shard 2 diverged")
        )
        text = format_postmortem(bundle)
        assert "postmortem: parity_failure" in text
        assert "shard 2 diverged" in text
        assert "causal chain (root cause first):" in text
        assert "!! trigger: parity_failure" in text
        assert "sched: " in text

    def test_bundle_span_tree_reassembles(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        root = _chain_into(recorder)
        bundle = load_bundle(recorder.trigger("a"))
        roots = bundle_span_tree(bundle)
        assert roots[0].span.trace_id == root.trace_id
        names = [n.span.name for n in roots[0].walk()]
        assert names[0] == "replan"
        assert "walk.restart" in names


class TestAutoTriggers:
    def test_injected_parity_failure_dumps_a_bundle(
        self, tmp_path, monkeypatch, capsys
    ):
        """The headline acceptance: a parity failure auto-produces a
        bundle that ``obs postmortem`` resolves to the causal chain."""
        from repro.cli import main
        from repro.net import build_demo_program, make_request_trace
        from repro.net.harness import run_loadtest

        program = build_demo_program(items=10, channels=2, seed=17)
        trace = make_request_trace(
            program, 12, np.random.default_rng(5)
        )

        def wrong_baseline(program, trace):
            return {
                "access_times": [-1] * len(trace),
                "tuning_times": [-1] * len(trace),
                "mean_access_time": -1.0,
                "mean_tuning_time": -1.0,
            }

        monkeypatch.setattr(
            "repro.net.harness.simulator_baseline", wrong_baseline
        )
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        report = asyncio.run(
            run_loadtest(
                program,
                trace=trace,
                rng=np.random.default_rng(5),
                arrival_rate=0.0,
                check_parity=True,
                flight_recorder=recorder,
            )
        )
        assert not report.parity_ok
        assert [t.reason for t in recorder.triggers] == ["parity_failure"]
        bundle_path = recorder.triggers[0].bundle
        assert bundle_path

        assert main(["obs", "postmortem", bundle_path]) == 0
        out = capsys.readouterr().out
        assert "postmortem: parity_failure" in out
        assert "flight rings:" in out
        assert "fleet: " in out

    def test_clean_run_triggers_nothing(self):
        from repro.net import build_demo_program, make_request_trace
        from repro.net.harness import run_loadtest

        program = build_demo_program(items=10, channels=2, seed=17)
        trace = make_request_trace(
            program, 10, np.random.default_rng(5)
        )
        recorder = FlightRecorder()
        report = asyncio.run(
            run_loadtest(
                program,
                trace=trace,
                rng=np.random.default_rng(5),
                arrival_rate=0.0,
                check_parity=True,
                flight_recorder=recorder,
            )
        )
        assert report.parity_ok
        assert recorder.triggers == []

    @pytest.mark.parametrize(
        "edit",
        [{"cost": 999.0}, {}],
        ids=["content-edited", "same-content-reformatted"],
    )
    def test_store_integrity_error_dumps_a_bundle(self, tmp_path, edit):
        from repro.net.harness import build_demo_plan
        from repro.sched import ScheduleStore, StoreError

        store_dir = tmp_path / "store"
        plan = build_demo_plan(items=10, channels=2)
        ScheduleStore(store_dir).publish(plan)
        record = ScheduleStore(store_dir).versions()[0]
        blob_path = store_dir / "objects" / f"{record.content_id}.json"
        # ``json.dumps`` puts spaces after separators: never the stored bytes.
        blob_path.write_text(json.dumps(json.loads(blob_path.read_text()) | edit))

        recorder = FlightRecorder(dump_dir=str(tmp_path / "pm"))
        reopened = ScheduleStore(store_dir, flight_recorder=recorder)
        with pytest.raises(StoreError, match="integrity"):
            reopened.load(1)
        assert [t.reason for t in recorder.triggers] == ["store_error"]
        bundle = load_bundle(recorder.triggers[0].bundle)
        assert bundle["trigger"]["reason"] == "store_error"
        assert "integrity" in bundle["trigger"]["detail"]

    def test_traced_cutover_loadtest_stays_clean(self, tmp_path):
        from repro.sched.harness import run_cutover_loadtest

        recorder = FlightRecorder(dump_dir=str(tmp_path))
        record = asyncio.run(
            run_cutover_loadtest(flight_recorder=recorder)
        )
        assert record["ok"]
        assert recorder.triggers == []
        # The recorder alone (no external tracer) still filled
        # per-component rings, so a later anomaly has recall.
        components = recorder.snapshot()["components"]
        assert {"sched", "station", "store", "tuner"} <= set(components)
        assert any(
            r["kind"] == "span_finished" for r in components["sched"]
        )


class TestPostmortemCli:
    def test_missing_bundle_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["obs", "postmortem", str(tmp_path / "nope.json")]
        ) == 2
        assert "cannot read bundle" in capsys.readouterr().err

    def test_malformed_bundle_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text('{"not": "a bundle"}')
        assert main(["obs", "postmortem", str(path)]) == 2
        assert "not a postmortem bundle" in capsys.readouterr().err

    def test_tree_flag_renders_the_spans(self, tmp_path, capsys):
        from repro.cli import main

        recorder = FlightRecorder(dump_dir=str(tmp_path))
        _chain_into(recorder)
        path = recorder.trigger("parity_failure")
        assert main(["obs", "postmortem", path, "--tree"]) == 0
        out = capsys.readouterr().out
        assert "causal chain" in out
        assert "- replan [1..8]" in out

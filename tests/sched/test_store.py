"""The versioned schedule store: publish, load, rollback, gc, state."""

from __future__ import annotations

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.net.harness import build_demo_plan, demo_labels
from repro.perf import PerfRecorder
from repro.planners import plan_catalog
from repro.sched import (
    ScheduleStore,
    StoreError,
    canonical_bytes,
    content_id,
    plan_to_doc,
)
from repro.sched import store as store_module
from repro.sched.delta import plan_bytes
from repro.workloads.weights import zipf_weights


@pytest.fixture(scope="module")
def plans():
    """Three distinct small plans (same catalog, different skew)."""
    return [
        build_demo_plan(items=10, channels=2, theta=theta)
        for theta in (0.95, 0.6, 0.35)
    ]


@pytest.fixture(scope="module")
def nudged():
    """Five plans of one catalog whose last weight grows 1% a step.

    The tree and the placement stay the same, so a delta between two
    of them is two ops (the cost and one weight), far smaller than a
    snapshot: the store still writes each one whole.
    """
    weights = zipf_weights(np.random.default_rng(2000), 10, theta=0.95)
    result = []
    for step in range(5):
        nudge = [float(w) for w in weights]
        nudge[-1] *= 1 + 0.01 * step
        result.append(
            plan_catalog(demo_labels(10), nudge, 2, method="sorting", fanout=3)
        )
    return result


def object_count(store: ScheduleStore) -> int:
    return len(list((store.root / "objects").glob("*.json")))


class TestPublish:
    def test_versions_are_contiguous_from_one(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        records = [store.publish(plan) for plan in plans]
        assert [r.version for r in records] == [1, 2, 3]
        assert [r.parent for r in records] == [None, 1, 2]
        assert store.head.version == 3

    def test_nudged_plans_publish_as_snapshots(self, tmp_path, nudged):
        """Even a two-op delta is not written: every version is whole."""
        store = ScheduleStore(tmp_path)
        for count, plan in enumerate(nudged, start=1):
            store.publish(plan)
            assert object_count(store) == count

    def test_identical_content_stores_no_new_object(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        first = store.publish(plans[0])
        count = object_count(store)
        again = store.publish(plans[0], note="unchanged replan")
        assert again.content_id == first.content_id
        assert object_count(store) == count  # content-addressed dedup

    def test_notes_and_perf_counters(self, tmp_path, plans):
        perf = PerfRecorder()
        store = ScheduleStore(tmp_path, perf=perf)
        store.publish(plans[0], note="baseline")
        assert store.head.note == "baseline"
        assert perf.counters["sched.publishes"] == 1

    def test_log_lines_keep_their_bytes(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        first = store.publish(plans[0], note="seed")
        store.publish(plans[1])
        assert (store.root / "log.jsonl").read_text() == (
            '{"content_id": "%s", "kind": "snapshot", "note": "seed", '
            '"parent": null, "version": 1}\n'
            '{"content_id": "%s", "kind": "snapshot", "note": "", '
            '"parent": 1, "version": 2}\n'
        ) % (first.content_id, store.head.content_id)


class TestLoad:
    def test_every_version_round_trips_byte_exactly(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        for plan in plans:
            store.publish(plan)
        for version, plan in enumerate(plans, start=1):
            loaded = store.load(version)
            assert canonical_bytes(plan_to_doc(loaded)) == canonical_bytes(
                plan_to_doc(plan)
            )

    def test_default_load_is_the_head(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        for plan in plans:
            store.publish(plan)
        assert canonical_bytes(plan_to_doc(store.load())) == canonical_bytes(
            plan_to_doc(plans[-1])
        )

    def test_fresh_handle_sees_prior_publishes(self, tmp_path, plans):
        writer = ScheduleStore(tmp_path)
        for plan in plans:
            writer.publish(plan)
        reader = ScheduleStore(tmp_path)  # cold cache, re-read from disk
        assert reader.head.version == 3
        assert reader.verify() == 3

    def test_unknown_version_raises(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        store.publish(plans[0])
        with pytest.raises(StoreError, match="have 1..1"):
            store.load(5)
        with pytest.raises(StoreError, match="empty"):
            ScheduleStore(tmp_path / "other").doc()

    def test_loaded_stats_are_the_callers_own(self, tmp_path):
        plan = build_demo_plan(items=10, channels=2, planner="meta")
        store = ScheduleStore(tmp_path)
        store.publish(plan)
        first = store.load(1)
        assert first.stats  # meta records its decision here
        first.stats["mode"] = "mutated"
        first.stats.setdefault("meta", {})["extra"] = [1, 2]
        assert store.load(1).stats == plan.stats

    def test_doc_is_a_defensive_copy(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        record = store.publish(plans[0])
        doc = store.doc(1)
        doc["cost"] = -1.0
        assert content_id(store.doc(1)) == record.content_id


class TestIntegrity:
    def test_corrupt_object_fails_the_load(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        record = store.publish(plans[0])
        path = store.root / "objects" / f"{record.content_id}.json"
        blob = json.loads(path.read_text())
        blob["cost"] = 999.0  # flip a byte's worth of meaning
        path.write_text(json.dumps(blob))
        with pytest.raises(StoreError, match="integrity"):
            ScheduleStore(tmp_path).load(1)

    @pytest.mark.parametrize("check", ["load", "verify"])
    def test_reformatted_object_fails_the_check(self, tmp_path, plans, check):
        """Same document, other bytes: an object is its exact bytes."""
        store = ScheduleStore(tmp_path)
        record = store.publish(plans[0])
        path = store.root / "objects" / f"{record.content_id}.json"
        doc = json.loads(path.read_bytes())
        path.write_text(json.dumps(doc, indent=1))
        assert content_id(doc) == record.content_id
        with pytest.raises(StoreError, match="integrity"):
            getattr(ScheduleStore(tmp_path), check)()

    def test_a_delta_version_fails_open(self, tmp_path, plans):
        """The store reads only snapshots, which is all it writes."""
        store = ScheduleStore(tmp_path)
        store.publish(plans[0])
        line = store.record(1).to_dict() | {
            "version": 2, "parent": 1, "kind": "delta", "delta_id": "ab" * 32,
        }
        with open(store.root / "log.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
        with pytest.raises(
            StoreError,
            match="version 2 is a 'delta' version; "
            "delta versions are no longer read",
        ):
            ScheduleStore(tmp_path)

    def test_noncontiguous_log_fails_open(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        store.publish(plans[0])
        log = store.root / "log.jsonl"
        line = json.loads(log.read_text())
        line["version"] = 7
        log.write_text(json.dumps(line) + "\n")
        with pytest.raises(StoreError, match="expected 1"):
            ScheduleStore(tmp_path)

    def test_verify_checks_every_version(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        for plan in plans:
            store.publish(plan)
        assert store.verify() == 3


class TestRollback:
    def test_rollback_is_byte_identical_and_append_only(
        self, tmp_path, plans
    ):
        store = ScheduleStore(tmp_path)
        for plan in plans:
            store.publish(plan)
        record = store.rollback(1)
        assert record.version == 4
        assert record.content_id == store.record(1).content_id
        assert canonical_bytes(store.doc(4)) == canonical_bytes(store.doc(1))
        # Nothing was rewritten: the full history is still loadable.
        assert store.verify() == 4

    def test_rollback_reuses_the_original_object(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        for plan in plans:
            store.publish(plan)
        count = object_count(store)
        store.rollback(1)
        assert object_count(store) == count

    def test_rollback_default_note_names_the_version(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        for plan in plans[:2]:
            store.publish(plan)
        assert "version 1" in store.rollback(1).note


class TestGc:
    def test_gc_removes_only_unreferenced_objects(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        for plan in plans:
            store.publish(plan)
        stray = store.root / "objects" / f"{'ab' * 32}.json"
        stray.write_text("{}")
        removed = store.gc()
        assert removed == ["ab" * 32]
        assert not stray.exists()
        assert store.verify() == 3  # everything referenced survived

    def test_clean_store_gc_is_a_no_op(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        store.publish(plans[0])
        size = store.size_bytes()
        assert store.gc() == []
        assert store.size_bytes() == size


class TestCrashState:
    def test_state_round_trips_and_clears(self, tmp_path):
        store = ScheduleStore(tmp_path)
        assert store.load_state() is None
        store.save_state({"air_clock": 42, "head_version": 2})
        assert ScheduleStore(tmp_path).load_state() == {
            "air_clock": 42,
            "head_version": 2,
        }
        store.clear_state()
        assert store.load_state() is None

    def test_corrupt_state_raises(self, tmp_path):
        store = ScheduleStore(tmp_path)
        (store.root / "state.json").write_text("{not json")
        with pytest.raises(StoreError, match="corrupt state"):
            store.load_state()


class TestDocumentCache:
    def test_thirty_versions_retain_about_two_documents(self, tmp_path):
        """The store keeps two parsed documents, not one per version."""
        labels = demo_labels(300)
        base = zipf_weights(np.random.default_rng(2000), 300, theta=1.2)
        rng = np.random.default_rng(7)
        plans = [
            plan_catalog(
                labels,
                [float(w) for w in base * np.exp(0.3 * rng.standard_normal(300))],
                3,
                method="sorting",
                fanout=3,
            )
            for _ in range(30)
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            one_doc = plan_to_doc(plans[0])
            doc_bytes = tracemalloc.get_traced_memory()[0] - before
            del one_doc
            store = ScheduleStore(tmp_path)
            before = tracemalloc.get_traced_memory()[0]
            for plan in plans:
                store.publish(plan)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(store.versions()) == 30
        assert retained < 3 * doc_bytes, (retained, doc_bytes)


    @staticmethod
    def count_json_parses(monkeypatch) -> list:
        """Record every plan document the store module parses.

        Log lines are parsed too; they are not plan documents.
        """
        parsed = []

        class CountingJson:
            def __getattr__(self, name):
                return getattr(json, name)

            def loads(self, text, *args, **kwargs):
                doc = json.loads(text, *args, **kwargs)
                if doc.get("format") == "broadcast-alloc/plan":
                    parsed.append(text)
                return doc

        monkeypatch.setattr(store_module, "json", CountingJson())
        return parsed

    def test_a_publish_only_sequence_never_parses(
        self, tmp_path, nudged, monkeypatch
    ):
        store = ScheduleStore(tmp_path)
        parsed = self.count_json_parses(monkeypatch)
        for plan in nudged:
            store.publish(plan)
        assert store.head.version == len(nudged)
        assert parsed == []

    def test_the_first_load_parses_the_published_bytes(
        self, tmp_path, nudged, monkeypatch
    ):
        store = ScheduleStore(tmp_path)
        record = store.publish(nudged[0])
        parsed = self.count_json_parses(monkeypatch)
        loaded = store.load(record.version)
        assert parsed == [plan_bytes(nudged[0])]
        assert plan_bytes(loaded) == plan_bytes(nudged[0])
        assert store.doc(record.version) == json.loads(plan_bytes(nudged[0]))
        store.load(record.version)
        assert len(parsed) == 1  # the parsed document is cached

    def test_rollback_of_a_published_version_is_unchanged(
        self, tmp_path, nudged
    ):
        store = ScheduleStore(tmp_path)
        first = store.publish(nudged[0])
        store.publish(nudged[1])
        record = store.rollback(first.version)
        assert record.content_id == first.content_id
        assert plan_bytes(store.load()) == plan_bytes(nudged[0])
        assert store.doc() == ScheduleStore(tmp_path).doc(first.version)


class TestLogReads:
    """The log is parsed once; a call parses only what was appended."""

    @staticmethod
    def count_parsed(monkeypatch) -> list[bytes]:
        parsed = []
        real = store_module._parse_log

        def counted(data, lines, records):
            parsed.append(data)
            return real(data, lines, records)

        monkeypatch.setattr(store_module, "_parse_log", counted)
        return parsed

    def test_a_call_parses_only_new_lines(self, tmp_path, nudged, monkeypatch):
        store = ScheduleStore(tmp_path)
        for plan in nudged[:4]:
            store.publish(plan)
        parsed = self.count_parsed(monkeypatch)
        assert store.head.version == 4
        assert [r.version for r in store.versions()] == [1, 2, 3, 4]
        store.load(2)
        store.publish(nudged[4])  # its own line needs no parse
        assert store.head.version == 5
        assert parsed == []
        other = ScheduleStore(tmp_path)
        other.publish(nudged[0])
        parsed.clear()
        assert store.head.version == 6
        log = (store.root / "log.jsonl").read_bytes()
        assert parsed == [log[log.rindex(b"\n", 0, -1) + 1:]]

    def test_another_handles_appends_are_seen(self, tmp_path, plans):
        first = ScheduleStore(tmp_path)
        first.publish(plans[0])
        second = ScheduleStore(tmp_path)
        second.publish(plans[1])
        assert first.head.version == 2
        record = first.publish(plans[2])
        assert (record.version, record.parent) == (3, 2)
        assert [r.version for r in second.versions()] == [1, 2, 3]

    def test_a_replaced_or_shorter_log_is_read_again(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        for plan in plans:
            store.publish(plan)
        log = store.root / "log.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        replacement = tmp_path / "log.new"
        replacement.write_text("".join(lines[:2]))
        os.replace(replacement, log)
        assert store.head.version == 2
        log.write_text(lines[0])  # shrunk in place
        assert store.head.version == 1

    def test_a_rewrite_in_place_is_read_again(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        for plan in plans[:2]:
            store.publish(plan, note="aaaa")
        log = store.root / "log.jsonl"
        assert store.head.note == "aaaa"
        log.write_text(log.read_text().replace("aaaa", "bbbb"))
        assert store.head.note == "bbbb"
        # A longer rewrite that moves the bytes the last read ended with.
        log.write_text(log.read_text().replace("bbbb", "cccccc"))
        assert [r.note for r in store.versions()] == ["cccccc", "cccccc"]

    def test_an_unfinished_line_is_parsed_but_not_kept(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        store.publish(plans[0])
        line = json.dumps(store.record(1).to_dict() | {"version": 2}) + "\n"
        log = store.root / "log.jsonl"
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(line[:10])
        for _ in range(2):
            with pytest.raises(StoreError, match="log line 2 is not JSON"):
                store.head
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(line[10:-1])
        assert store.head.version == 2  # whole, if not yet terminated
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("\n")
        assert store.head.version == 2
        assert store.publish(plans[1]).version == 3

    def test_a_bad_line_fails_every_call(self, tmp_path, plans):
        store = ScheduleStore(tmp_path)
        store.publish(plans[0])
        with open(store.root / "log.jsonl", "a", encoding="utf-8") as handle:
            handle.write("\n{oops\n")
        for _ in range(2):
            with pytest.raises(StoreError, match="log line 3 is not JSON"):
                store.versions()

    def test_verify_parses_the_whole_log(self, tmp_path, plans, monkeypatch):
        store = ScheduleStore(tmp_path)
        for plan in plans:
            store.publish(plan)
        parsed = self.count_parsed(monkeypatch)
        assert store.verify() == 3
        assert parsed == [(store.root / "log.jsonl").read_bytes()]


class TestObjectWrites:
    def test_two_writers_of_one_object_interleave(
        self, tmp_path, plans, monkeypatch
    ):
        """Each writer renames its own temp file, whatever the order.

        The first writer's rename is held back until a second writer,
        in another handle, has written and renamed the same object.
        """
        first = ScheduleStore(tmp_path)
        second = ScheduleStore(tmp_path)
        payload = plan_bytes(plans[0])
        object_id = hashlib.sha256(payload).hexdigest()
        real = os.replace
        held = []

        def interleaved(source, target):
            if not held:
                held.append(source)
                second._write_object(object_id, payload)
            real(source, target)

        monkeypatch.setattr(store_module.os, "replace", interleaved)
        first._write_object(object_id, payload)
        monkeypatch.undo()
        path = tmp_path / "objects" / f"{object_id}.json"
        assert path.read_bytes() == payload
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        record = first.publish(plans[0])
        assert record.content_id == object_id
        assert plan_to_doc(first.load(1)) == plan_to_doc(plans[0])

    def test_two_crash_state_writers_interleave(self, tmp_path, monkeypatch):
        """Each ``save_state`` renames its own temp file, too.

        The first writer's rename is held back until a second writer,
        in another handle, has saved its own state.
        """
        first = ScheduleStore(tmp_path)
        second = ScheduleStore(tmp_path)
        real = os.replace
        held = []

        def interleaved(source, target):
            if not held:
                held.append(source)
                second.save_state({"writer": 2})
            real(source, target)

        monkeypatch.setattr(store_module.os, "replace", interleaved)
        first.save_state({"writer": 1})
        monkeypatch.undo()
        assert second.load_state() == {"writer": 1}  # the later rename
        assert list(tmp_path.glob("*.tmp")) == []

    def test_a_failed_write_leaves_no_temp_file(
        self, tmp_path, plans, monkeypatch
    ):
        store = ScheduleStore(tmp_path)

        def refuse(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            store.publish(plans[0])
        monkeypatch.undo()
        assert list((tmp_path / "objects").iterdir()) == []
        assert store.head is None

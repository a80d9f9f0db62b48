"""Tests for JSON persistence of trees and schedules."""

from __future__ import annotations

import json

import pytest

from repro.core.optimal import solve
from repro.io.json_io import (
    PersistenceError,
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.tree.builders import from_spec, paper_example_tree, random_tree
from repro.tree.validation import trees_equal


class TestTreeRoundTrip:
    def test_paper_tree(self, fig1_tree):
        document = tree_to_dict(fig1_tree)
        assert trees_equal(tree_from_dict(document), fig1_tree)

    def test_document_is_json_serialisable(self, fig1_tree):
        text = json.dumps(tree_to_dict(fig1_tree))
        assert trees_equal(tree_from_dict(json.loads(text)), fig1_tree)

    def test_keys_preserved(self):
        tree = from_spec([("A", 3), ("B", 5)])
        for position, leaf in enumerate(tree.data_nodes()):
            leaf.key = f"key-{position}"
        restored = tree_from_dict(tree_to_dict(tree))
        assert [leaf.key for leaf in restored.data_nodes()] == [
            "key-0",
            "key-1",
        ]

    def test_random_trees(self, rng):
        for _ in range(5):
            tree = random_tree(rng, 9)
            assert trees_equal(tree_from_dict(tree_to_dict(tree)), tree)

    def test_wrong_format_rejected(self):
        with pytest.raises(PersistenceError):
            tree_from_dict({"format": "something-else"})

    @pytest.mark.parametrize("document", [[1], "tree", None])
    def test_non_object_document_rejected(self, document):
        with pytest.raises(PersistenceError, match="not a broadcast-alloc"):
            tree_from_dict(document)

    @pytest.mark.parametrize(
        "root",
        [
            [1],
            None,
            {"type": "index", "children": [{"type": "data", "label": "A",
                                            "weight": 1}, 7]},
        ],
        ids=["list-root", "missing-root", "non-object-child"],
    )
    def test_non_object_node_rejected(self, root):
        with pytest.raises(PersistenceError, match="not an object"):
            tree_from_dict({"format": "broadcast-alloc/tree", "root": root})

    def test_unknown_node_type_rejected(self):
        with pytest.raises(PersistenceError):
            tree_from_dict(
                {"format": "broadcast-alloc/tree", "root": {"type": "blob"}}
            )


class TestScheduleRoundTrip:
    def test_metrics_survive(self, fig1_tree):
        schedule = solve(fig1_tree, channels=2).schedule
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored.channels == 2
        assert restored.data_wait() == pytest.approx(schedule.data_wait())
        assert restored.cycle_length == schedule.cycle_length

    def test_placement_table_position_keyed(self):
        """Duplicate labels round-trip because placement is by position."""
        tree = from_spec([("X", 5), ("X", 3)])
        schedule = solve(tree, channels=1).schedule
        restored = schedule_from_dict(schedule_to_dict(schedule))
        weights_by_slot = {
            restored.slot_of(leaf): leaf.weight
            for leaf in restored.tree.data_nodes()
        }
        original = {
            schedule.slot_of(leaf): leaf.weight
            for leaf in schedule.tree.data_nodes()
        }
        assert weights_by_slot == original

    def test_restored_schedule_is_validated(self, fig1_tree):
        schedule = solve(fig1_tree, channels=2).schedule
        document = schedule_to_dict(schedule)
        document["placement"][1] = document["placement"][0]  # collide cells
        with pytest.raises(Exception):
            schedule_from_dict(document)

    def test_short_placement_rejected(self, fig1_tree):
        schedule = solve(fig1_tree, channels=1).schedule
        document = schedule_to_dict(schedule)
        document["placement"] = document["placement"][:-1]
        with pytest.raises(PersistenceError, match="cover"):
            schedule_from_dict(document)

    def test_file_round_trip(self, tmp_path, fig1_tree):
        schedule = solve(fig1_tree, channels=2).schedule
        path = tmp_path / "plan.json"
        save_schedule(schedule, path)
        restored = load_schedule(path)
        assert restored.data_wait() == pytest.approx(schedule.data_wait())

    def test_wrong_format_rejected(self):
        with pytest.raises(PersistenceError):
            schedule_from_dict({"format": "nope"})

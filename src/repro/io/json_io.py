"""JSON persistence for index trees and broadcast schedules.

A production broadcast server plans offline and ships the plan to the
transmitter; these helpers give both artifacts a stable, human-readable
interchange form:

* trees serialise structurally (labels, weights, keys, children);
* schedules serialise as the tree plus a placement table keyed by the
  node's preorder position — positions, not labels, so trees with
  duplicate labels round-trip exactly.

Round-tripping preserves structure, weights, placements and therefore
every metric; the tests assert equality through
:func:`repro.tree.validation.trees_equal` and the data wait.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..broadcast.schedule import BroadcastSchedule, _validate_placement
from ..exceptions import ReproError
from ..tree.index_tree import IndexTree, _validate_nodes
from ..tree.node import DataNode, IndexNode, Node

__all__ = [
    "tree_to_dict",
    "tree_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
]


class PersistenceError(ReproError):
    """A serialised document is malformed."""


def tree_to_dict(tree: IndexTree) -> dict[str, Any]:
    """Serialise a tree to a JSON-compatible dict."""

    def encode(node: Node) -> dict[str, Any]:
        if isinstance(node, DataNode):
            document: dict[str, Any] = {
                "type": "data",
                "label": node.label,
                "weight": node.weight,
            }
            if node.key is not None:
                document["key"] = node.key
            return document
        assert isinstance(node, IndexNode)
        return {
            "type": "index",
            "label": node.label,
            "children": [encode(child) for child in node.children],
        }

    return {"format": "broadcast-alloc/tree", "version": 1, "root": encode(tree.root)}


def tree_from_dict(document: dict[str, Any]) -> IndexTree:
    """Rebuild a tree from its serialised form."""
    return _decode_tree(document)[0]


def _decode_tree(document: dict[str, Any]) -> tuple[IndexTree, list[Node]]:
    """The validated tree of a document, and its nodes in preorder.

    One preorder pass builds the nodes and numbers the index nodes as
    :meth:`IndexTree.renumber` would; the tree's invariants are then
    checked over that node list.
    """
    if (
        not isinstance(document, dict)
        or document.get("format") != "broadcast-alloc/tree"
    ):
        raise PersistenceError("not a broadcast-alloc tree document")
    nodes: list[Node] = []
    order = 0
    # Node documents still to decode, each with the node to attach it
    # to; children are pushed last-first.
    pending: list[Any] = [document.get("root")]
    parents: list[IndexNode | None] = [None]
    while pending:
        node_document = pending.pop()
        parent = parents.pop()
        if not isinstance(node_document, dict):
            raise PersistenceError(
                f"tree node is not an object: {node_document!r}"
            )
        kind = node_document.get("type")
        if kind == "data":
            node: Node = DataNode(
                node_document["label"],
                node_document["weight"],
                node_document.get("key"),
            )
        elif kind == "index":
            children = node_document.get("children", [])
            if type(children) is not list:
                children = list(children)
            node = IndexNode(node_document.get("label", ""))
            order += 1
            node.order = order
            if not node.label:
                node.label = str(order)
            pending += reversed(children)
            parents += [node] * len(children)
        else:
            raise PersistenceError(f"unknown node type {kind!r}")
        if parent is not None:
            node.parent = parent
            parent.children.append(node)
        nodes.append(node)
    root = nodes[0]
    _validate_nodes(root, nodes)
    return IndexTree(root, renumber=False, validate=False), nodes


def schedule_to_dict(schedule: BroadcastSchedule) -> dict[str, Any]:
    """Serialise a schedule (tree + placement, preorder-position keyed)."""
    nodes = schedule.tree.nodes()
    placement = [
        list(schedule.position(node)) for node in nodes
    ]
    return {
        "format": "broadcast-alloc/schedule",
        "version": 1,
        "channels": schedule.channels,
        "tree": tree_to_dict(schedule.tree),
        "placement": placement,
    }


def schedule_from_dict(document: dict[str, Any]) -> BroadcastSchedule:
    """Rebuild (and validate) a schedule from its serialised form."""
    if document.get("format") != "broadcast-alloc/schedule":
        raise PersistenceError("not a broadcast-alloc schedule document")
    tree, nodes = _decode_tree(document["tree"])
    placement_rows = document["placement"]
    if len(placement_rows) != len(nodes):
        raise PersistenceError(
            "placement table does not cover every tree node"
        )
    placement = {
        node: (int(channel), int(slot))
        for node, (channel, slot) in zip(nodes, placement_rows)
    }
    schedule = BroadcastSchedule(
        tree, placement, channels=int(document["channels"]), validate=False
    )
    _validate_placement(schedule, nodes)
    return schedule


def save_schedule(schedule: BroadcastSchedule, path: str | Path) -> None:
    """Write a schedule document to ``path`` as JSON."""
    Path(path).write_text(
        json.dumps(schedule_to_dict(schedule), indent=2) + "\n"
    )


def load_schedule(path: str | Path) -> BroadcastSchedule:
    """Read and validate a schedule document from ``path``."""
    return schedule_from_dict(json.loads(Path(path).read_text()))

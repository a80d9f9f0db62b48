"""The replan path's codec against frozen copies of the code it replaced.

``plan_bytes``, ``delta``, ``schedule_from_dict``, ``compile_program``
and ``encode_program`` each became one linear pass over the plan. The
functions below are the versions they replaced, kept as they were
(their helpers too, so a later change to a shared helper cannot move
the oracle with it; the frozen diff without the size limit ``delta``
no longer takes). Today's code must give the same bytes, content
ids, delta ops, bucket grids and frames on random trees and on
catalog plans, including ``ptas`` plans, hand-built trees whose root's
subtrees interleave their key ranges, and tie-heavy weights, and raise
the same exception with the same message for every malformed document.
"""

from __future__ import annotations

import copy
import hashlib
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broadcast.bucket import Bucket, Pointer
from repro.broadcast.pointers import BroadcastProgram, compile_program
from repro.broadcast.schedule import BroadcastSchedule
from repro.exceptions import ScheduleError, TreeError
from repro.heuristics.channel_allocation import sorting_schedule
from repro.io.json_io import PersistenceError, schedule_from_dict
from repro.io.wire import WireFormatError, encode_program
from repro.planners import PlanResult, plan_catalog
from repro.sched import canonical_bytes, content_id, delta, plan_to_doc
from repro.sched.delta import plan_bytes
from repro.tree.alphabetic import build_index
from repro.tree.builders import random_tree
from repro.tree.index_tree import IndexTree
from repro.tree.node import DataNode, IndexNode
from repro.workloads.weights import zipf_weights

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# frozen: plan_bytes (sched/delta.py, io/json_io.py)
# ---------------------------------------------------------------------------

def _frozen_scalarize(value):
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"{type(value).__name__} is not JSON-serialisable in a plan document"
    )


def frozen_canonical_bytes(doc):
    return json.dumps(
        doc,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
        default=_frozen_scalarize,
    ).encode()


def frozen_tree_to_dict(tree):
    def encode(node):
        if isinstance(node, DataNode):
            document = {"type": "data", "label": node.label, "weight": node.weight}
            if node.key is not None:
                document["key"] = node.key
            return document
        return {
            "type": "index",
            "label": node.label,
            "children": [encode(child) for child in node.children],
        }

    return {"format": "broadcast-alloc/tree", "version": 1, "root": encode(tree.root)}


def frozen_schedule_to_dict(schedule):
    nodes = schedule.tree.nodes()
    placement = [list(schedule.position(node)) for node in nodes]
    return {
        "format": "broadcast-alloc/schedule",
        "version": 1,
        "channels": schedule.channels,
        "tree": frozen_tree_to_dict(schedule.tree),
        "placement": placement,
    }


def frozen_plan_bytes(result):
    return frozen_canonical_bytes({
        "format": "broadcast-alloc/plan",
        "version": 1,
        "schedule": frozen_schedule_to_dict(result.schedule),
        "cost": result.cost,
        "method": result.method,
        "stats": json.loads(frozen_canonical_bytes(result.stats)),
    })


# ---------------------------------------------------------------------------
# frozen: delta (sched/delta.py)
# ---------------------------------------------------------------------------

class _FrozenDiffer:
    def __init__(self):
        self.ops = []

    def diff(self, a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() - b.keys()):
                self.ops.append({"op": "del", "path": path + [key]})
            for key in sorted(b):
                if key in a:
                    self.diff(a[key], b[key], path + [key])
                else:
                    self.ops.append(
                        {"op": "set", "path": path + [key], "value": b[key]}
                    )
            return
        if (
            isinstance(a, list)
            and isinstance(b, list)
            and not isinstance(a, str)
            and not isinstance(b, str)
        ):
            common = min(len(a), len(b))
            for index in range(common):
                self.diff(a[index], b[index], path + [index])
            if len(b) > len(a):
                self.ops.append(
                    {"op": "push", "path": list(path), "values": b[common:]}
                )
            elif len(b) < len(a):
                self.ops.append(
                    {"op": "trim", "path": list(path), "length": len(b)}
                )
            return
        if type(a) is type(b) and a == b:
            if not isinstance(a, float) or repr(a) == repr(b):
                return
        self.ops.append({"op": "set", "path": list(path), "value": b})


def frozen_delta(base, target):
    differ = _FrozenDiffer()
    differ.diff(base, target, [])
    return differ.ops


# ---------------------------------------------------------------------------
# frozen: schedule_from_dict (io/json_io.py, tree/index_tree.py,
# broadcast/schedule.py)
# ---------------------------------------------------------------------------

def _frozen_preorder(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, IndexNode):
            stack.extend(reversed(node.children))


def _frozen_renumber(root):
    counter = 0
    for node in _frozen_preorder(root):
        if isinstance(node, IndexNode):
            counter += 1
            node.order = counter
            if not node.label:
                node.label = str(counter)


def _frozen_validate_tree(root):
    if root.parent is not None:
        raise TreeError("root must not have a parent")
    seen = set()
    orders = set()
    for node in _frozen_preorder(root):
        if id(node) in seen:
            raise TreeError(f"node {node.label!r} reachable more than once")
        seen.add(id(node))
        if isinstance(node, IndexNode):
            if not node.children:
                raise TreeError(f"index node {node.label!r} has no children")
            if node.order:
                if node.order in orders:
                    raise TreeError(f"duplicate index order number {node.order}")
                orders.add(node.order)
            for child in node.children:
                if child.parent is not node:
                    raise TreeError(
                        f"child {child.label!r} has inconsistent parent pointer"
                    )
        elif isinstance(node, DataNode):
            if node.weight < 0:
                raise TreeError(f"data node {node.label!r} has negative weight")
        else:
            raise TreeError(f"unknown node type: {type(node)!r}")


def _frozen_validate_schedule(schedule):
    placement = schedule._placement
    tree_nodes = list(_frozen_preorder(schedule.tree.root))
    if len(placement) != len(tree_nodes):
        raise ScheduleError(
            f"placement covers {len(placement)} nodes, "
            f"tree has {len(tree_nodes)}"
        )
    placed = {id(node) for node in placement}
    for node in tree_nodes:
        if id(node) not in placed:
            raise ScheduleError(f"node {node.label!r} is not placed")
    cells = set()
    for node, (channel, slot) in placement.items():
        if not 1 <= channel <= schedule.channels:
            raise ScheduleError(
                f"node {node.label!r} on channel {channel}, "
                f"schedule has {schedule.channels}"
            )
        if slot < 1:
            raise ScheduleError(f"node {node.label!r} at slot {slot} < 1")
        if (channel, slot) in cells:
            raise ScheduleError(f"two nodes share channel {channel} slot {slot}")
        cells.add((channel, slot))
    for node in tree_nodes:
        parent = node.parent
        if parent is None:
            continue
        if placement[node][1] <= placement[parent][1]:
            raise ScheduleError(
                f"child {node.label!r} (slot {placement[node][1]}) does "
                f"not air after parent {parent.label!r} "
                f"(slot {placement[parent][1]})"
            )


def frozen_tree_from_dict(document):
    if (
        not isinstance(document, dict)
        or document.get("format") != "broadcast-alloc/tree"
    ):
        raise PersistenceError("not a broadcast-alloc tree document")

    def decode(node_document):
        if not isinstance(node_document, dict):
            raise PersistenceError(f"tree node is not an object: {node_document!r}")
        kind = node_document.get("type")
        if kind == "data":
            return DataNode(
                node_document["label"],
                node_document["weight"],
                key=node_document.get("key"),
            )
        if kind == "index":
            children = [decode(c) for c in node_document.get("children", [])]
            return IndexNode(node_document.get("label", ""), children)
        raise PersistenceError(f"unknown node type {kind!r}")

    root = decode(document.get("root"))
    _frozen_renumber(root)
    _frozen_validate_tree(root)
    return IndexTree(root, renumber=False, validate=False)


def frozen_schedule_from_dict(document):
    if document.get("format") != "broadcast-alloc/schedule":
        raise PersistenceError("not a broadcast-alloc schedule document")
    tree = frozen_tree_from_dict(document["tree"])
    nodes = list(_frozen_preorder(tree.root))
    placement_rows = document["placement"]
    if len(placement_rows) != len(nodes):
        raise PersistenceError("placement table does not cover every tree node")
    placement = {
        node: (int(channel), int(slot))
        for node, (channel, slot) in zip(nodes, placement_rows)
    }
    schedule = BroadcastSchedule(
        tree, placement, channels=int(document["channels"]), validate=False
    )
    _frozen_validate_schedule(schedule)
    return schedule


# ---------------------------------------------------------------------------
# frozen: compile_program (broadcast/pointers.py)
# ---------------------------------------------------------------------------

def frozen_compile_program(schedule):
    cycle = schedule.cycle_length
    buckets = [
        [Bucket(channel=c, slot=s) for s in range(1, cycle + 1)]
        for c in range(1, schedule.channels + 1)
    ]
    for node in schedule.nodes():
        channel, slot = schedule.position(node)
        bucket = buckets[channel - 1][slot - 1]
        bucket.node = node
        if isinstance(node, IndexNode):
            bucket.child_pointers = [
                Pointer(
                    channel=schedule.position(child)[0],
                    slot=schedule.position(child)[1],
                    offset=schedule.slot_of(child) - schedule.slot_of(node),
                    label=child.label,
                )
                for child in node.children
            ]
    root_channel, root_slot = schedule.position(schedule.tree.root)
    for slot_index in range(cycle):
        buckets[0][slot_index].next_cycle_pointer = Pointer(
            channel=root_channel,
            slot=root_slot,
            offset=cycle - (slot_index + 1) + root_slot,
            label=schedule.tree.root.label,
        )
    return BroadcastProgram(schedule=schedule, buckets=buckets)


# ---------------------------------------------------------------------------
# frozen: encode_program (io/wire.py)
# ---------------------------------------------------------------------------

def _frozen_subtree_max_keys(root):
    order = [root]
    for node in order:
        if isinstance(node, IndexNode):
            order.extend(node.children)
    best = {}
    for node in reversed(order):
        if isinstance(node, DataNode):
            best[node] = str(node.key) if node.key is not None else node.label
        else:
            best[node] = max((best[child] for child in node.children), default="")
    return best


def _frozen_encode_bucket(bucket, bucket_size, max_keys):
    next_offset = bucket.next_cycle_pointer.offset if bucket.next_cycle_pointer else 0
    if not 0 <= next_offset <= 0xFFFF:
        raise WireFormatError(f"next-cycle offset {next_offset} out of range")
    if bucket.node is None:
        body = b""
        kind = 0
        label = b""
    else:
        label = bucket.node.label.encode()
        if len(label) > 255:
            raise WireFormatError("label longer than 255 bytes")
        if isinstance(bucket.node, IndexNode):
            kind = 1
            parts = [struct.pack(">B", len(bucket.child_pointers))]
            for pointer, child in zip(bucket.child_pointers, bucket.node.children):
                key = max_keys[child].encode()
                if len(key) > 255:
                    raise WireFormatError("routing key longer than 255 bytes")
                if not 0 < pointer.offset <= 0xFFFF:
                    raise WireFormatError(f"child offset {pointer.offset} out of range")
                parts.append(
                    struct.pack(">BHB", pointer.channel, pointer.offset, len(key)) + key
                )
            body = b"".join(parts)
        else:
            kind = 2
            payload = f"item:{bucket.node.label}".encode()
            body = struct.pack(">H", len(payload)) + payload
    content = struct.pack(">BHB", kind, next_offset, len(label)) + label + body
    if 5 + len(content) > bucket_size:
        raise WireFormatError(
            f"bucket content ({5 + len(content)} bytes) exceeds the "
            f"{bucket_size}-byte frame; lower the tree fanout or raise "
            "the bucket size"
        )
    padded = content + b"\x00" * (bucket_size - 5 - len(content))
    return struct.pack(">BI", 0xB1, zlib.crc32(padded)) + padded


def frozen_encode_program(program, bucket_size=96):
    max_keys = _frozen_subtree_max_keys(program.schedule.tree.root)
    return [
        [_frozen_encode_bucket(bucket, bucket_size, max_keys) for bucket in row]
        for row in program.buckets
    ]


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

LABELS = st.sampled_from(
    ["", "A", "K007", 'q"uote', "back\\slash", "é", "日本", "\x01"]
)


def dressed_tree(seed: int, leaves: int, fanout: int, data: st.DataObject):
    """A random tree with drawn labels, keys and float weights."""
    tree = random_tree(
        np.random.default_rng(seed), leaves, fanout, integer_weights=False
    )
    for node in tree.nodes():
        if data.draw(st.booleans()):
            node.label = data.draw(LABELS) + node.label
        if isinstance(node, DataNode):
            node.key = data.draw(st.one_of(
                st.none(), st.integers(-5, 500), st.text(max_size=4)
            ))
            node.weight = data.draw(st.sampled_from(
                [node.weight, 0.0, 1e-7, 1e17, 2.5, float(int(node.weight))]
            ))
    return tree


def tree_result(tree, channels: int, stats=None) -> PlanResult:
    schedule = sorting_schedule(tree, channels)
    return PlanResult(schedule, schedule.data_wait(), "sorting", stats or {})


def heavy_light_catalog(seed: int, items: int = 48, heavy: int = 2):
    """Ultra-heavy items in a light catalog, the last key among them."""
    rng = np.random.default_rng(seed)
    labels = [f"k{i:03d}" for i in range(items)]
    weights = [float(w) for w in rng.uniform(1.0, 2.0, items)]
    for position in [*rng.choice(items - 1, heavy - 1, replace=False), items - 1]:
        weights[position] = 1000.0 * rng.uniform(1.0, 2.0)
    return labels, weights


def two_group_plan(labels, weights) -> PlanResult:
    """The heavy items' alphabetic subtree, then the rest's, under a root.

    The root's largest key sits in its first child, not its last: the
    tree ptas built when it planned per weight class.
    """
    roots = []
    for heavy in (True, False):
        group = [i for i, w in enumerate(weights) if (w >= 1000.0) == heavy]
        subtree = build_index(
            [labels[i] for i in group], [weights[i] for i in group], fanout=3
        )
        for node in subtree.index_nodes():
            node.label = ""  # numbered afresh under the shared root
        roots.append(subtree.root)
    return tree_result(IndexTree(IndexNode("", roots)), 4)


def catalog_plans(
    seed: int, items: int, theta: float, decimals: int | None,
    method: str = "meta", channels: int = 3,
):
    """Two plans of one catalog a weight drift apart."""
    rng = np.random.default_rng(seed)
    labels = [f"K{i:05d}" for i in range(items)]
    base = np.asarray(zipf_weights(rng, items, theta=theta))
    plans = []
    for _ in range(2):
        weights = base * np.exp(0.3 * rng.standard_normal(items))
        if decimals is not None:  # tie-heavy: few distinct weights
            weights = np.round(weights, decimals)
        plans.append(
            plan_catalog(labels, [float(w) for w in weights], channels,
                         method=method, fanout=3)
        )
    return plans


def assert_same_codec(result: PlanResult) -> None:
    """Bytes, id, load, grid and frames equal the frozen pipeline's."""
    payload = plan_bytes(result)
    assert payload == frozen_plan_bytes(result)
    doc = plan_to_doc(result)
    assert canonical_bytes(doc) == frozen_canonical_bytes(doc) == payload
    assert content_id(doc) == hashlib.sha256(payload).hexdigest()

    loaded = schedule_from_dict(doc["schedule"])
    frozen = frozen_schedule_from_dict(copy.deepcopy(doc["schedule"]))
    assert frozen_schedule_to_dict(loaded) == frozen_schedule_to_dict(frozen)
    assert [
        node.order for node in loaded.tree.nodes() if isinstance(node, IndexNode)
    ] == [
        node.order for node in frozen.tree.nodes() if isinstance(node, IndexNode)
    ]
    assert frozen_canonical_bytes(
        frozen_schedule_to_dict(loaded)
    ) == frozen_canonical_bytes(doc["schedule"])

    program = compile_program(loaded)
    assert_same_grid(program, frozen_compile_program(loaded))
    assert encode_program(program) == frozen_encode_program(program)


def assert_same_grid(program, frozen) -> None:
    assert len(program.buckets) == len(frozen.buckets)
    for row, frozen_row in zip(program.buckets, frozen.buckets):
        assert len(row) == len(frozen_row)
        for bucket, expected in zip(row, frozen_row):
            assert (bucket.channel, bucket.slot) == (expected.channel, expected.slot)
            assert bucket.node is expected.node
            assert bucket.child_pointers == expected.child_pointers
            assert bucket.next_cycle_pointer == expected.next_cycle_pointer


def assert_same_deltas(base: dict, target: dict) -> None:
    """The diff gives the frozen diff's answer, op for op."""
    assert delta(base, target) == frozen_delta(base, target)


class TestRandomTrees:
    @settings(max_examples=60, **COMMON)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        leaves=st.integers(min_value=1, max_value=40),
        fanout=st.integers(min_value=2, max_value=4),
        channels=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_codec_matches_the_frozen_one(self, seed, leaves, fanout, channels, data):
        tree = dressed_tree(seed, leaves, fanout, data)
        stats = data.draw(st.sampled_from(
            [{}, {"nodes": 3, "ratio": 0.5}, {2: {3: 1.5, 20: None}, 10: (1, 2)}]
        ))
        result = tree_result(tree, channels, stats)
        try:
            frozen_encode_program(frozen_compile_program(result.schedule))
        except WireFormatError:
            # Long labels and keys overflow a 96-byte frame: only the
            # document half of the pipeline applies.
            assert plan_bytes(result) == frozen_plan_bytes(result)
            return
        assert_same_codec(result)

    @settings(max_examples=40, **COMMON)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        leaves=st.integers(min_value=1, max_value=30),
        channels=st.integers(min_value=1, max_value=3),
        drift=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_deltas_between_trees_match(self, seed, leaves, channels, drift):
        rng = np.random.default_rng(seed)
        first = random_tree(rng, leaves, 3, integer_weights=False)
        second = first.clone() if drift < 0.5 else random_tree(rng, leaves, 3)
        for node in second.data_nodes():
            node.weight *= 1 + drift * float(rng.standard_normal()) ** 2
        assert_same_deltas(
            plan_to_doc(tree_result(first, channels)),
            plan_to_doc(tree_result(second, channels)),
        )


class TestCatalogPlans:
    @pytest.mark.parametrize(
        "items, theta, decimals",
        [(12, 0.95, None), (120, 1.2, None), (300, 0.35, None),
         (300, 1.2, 1), (400, 0.95, 0)],
    )
    def test_meta_plans_and_their_deltas(self, items, theta, decimals):
        first, second = catalog_plans(items, items, theta, decimals)
        for result in (first, second):
            assert_same_codec(result)
        assert_same_deltas(plan_to_doc(first), plan_to_doc(second))

    @settings(max_examples=25, **COMMON)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        items=st.integers(min_value=2, max_value=90),
        theta=st.sampled_from([0.35, 0.95, 1.2]),
        decimals=st.sampled_from([None, 0, 1]),
        method=st.sampled_from(["meta", "sorting", "ptas"]),
        channels=st.integers(min_value=1, max_value=4),
    )
    def test_drawn_catalog_plans(
        self, seed, items, theta, decimals, method, channels
    ):
        first, second = catalog_plans(
            seed, items, theta, decimals, method, channels
        )
        for result in (first, second):
            assert_same_codec(result)
        assert_same_deltas(plan_to_doc(first), plan_to_doc(second))

    @pytest.mark.parametrize("heavy", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_two_group_ptas_plans(self, seed, heavy):
        """A hand-built two-group tree, and the one tree ptas plans for
        the same catalog."""
        plans = []
        for offset in (0, 100):
            labels, weights = heavy_light_catalog(seed + offset, heavy=heavy)
            plans.append(two_group_plan(labels, weights))
            plans.append(plan_catalog(labels, weights, 4, method="ptas"))
        for result in plans:
            assert_same_codec(result)
        for first, second in zip(plans, plans[2:]):
            assert_same_deltas(plan_to_doc(second), plan_to_doc(first))


# ---------------------------------------------------------------------------
# malformed documents: the same exception, the same message
# ---------------------------------------------------------------------------

def _document():
    """A small valid schedule document: root 1 -> [A, 2 -> [B, C]]."""
    tree = IndexTree(IndexNode("", [
        DataNode("A", 3.0), IndexNode("", [DataNode("B", 2.0), DataNode("C", 1.0)]),
    ]))
    return frozen_schedule_to_dict(sorting_schedule(tree, 2))


def _rows(doc):
    return doc["placement"]


def _root(doc):
    return doc["tree"]["root"]


def _edit(change):
    def make():
        doc = _document()
        change(doc)
        return doc
    return make


MALFORMED = {
    "wrong schedule format": _edit(lambda d: d.update(format="broadcast-alloc/tree")),
    "wrong tree format": _edit(lambda d: d["tree"].update(format="nope")),
    "tree not an object": _edit(lambda d: d.update(tree=[1])),
    "missing tree": _edit(lambda d: d.pop("tree")),
    "missing root": _edit(lambda d: d["tree"].pop("root")),
    "missing child node": _edit(lambda d: _root(d)["children"].__setitem__(0, None)),
    "node without a type": _edit(lambda d: _root(d)["children"][1].pop("type")),
    "data node without a weight": _edit(
        lambda d: _root(d)["children"][0].pop("weight")),
    "children not a list": _edit(lambda d: _root(d).update(children=7)),
    "childless index node": _edit(
        lambda d: _root(d)["children"][1].update(children=[])),
    "placement missing": _edit(lambda d: d.pop("placement")),
    "placement short of a node": _edit(lambda d: _rows(d).pop()),
    "placement with an extra row": _edit(lambda d: _rows(d).append([1, 9])),
    "placement row not a pair": _edit(lambda d: _rows(d).__setitem__(2, [1])),
    "placement row not numbers": _edit(lambda d: _rows(d).__setitem__(2, ["x", 1])),
    "channels missing": _edit(lambda d: d.pop("channels")),
    "child not after its parent": _edit(lambda d: _rows(d).__setitem__(3, [2, 1])),
    "child in its parent's slot": _edit(
        lambda d: _rows(d).__setitem__(4, [2, _rows(d)[2][1]])),
    "channel zero": _edit(lambda d: _rows(d).__setitem__(1, [0, _rows(d)[1][1]])),
    "channel past the last": _edit(lambda d: _rows(d).__setitem__(1, [3, 2])),
    "slot zero": _edit(lambda d: _rows(d).__setitem__(0, [1, 0])),
    "shared cell": _edit(lambda d: _rows(d).__setitem__(4, list(_rows(d)[3]))),
    "negative weight": _edit(lambda d: _root(d)["children"][0].update(weight=-1.0)),
    "weight not a number": _edit(lambda d: _root(d)["children"][0].update(weight="x")),
}


def _outcome(load, document):
    try:
        load(document)
    except Exception as error:  # the outcome under test is the exception
        return type(error), str(error)
    return None


class TestMalformedDocuments:
    def test_the_base_document_loads(self):
        assert _outcome(schedule_from_dict, _document()) is None

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_same_exception_and_message(self, name):
        expected = _outcome(frozen_schedule_from_dict, MALFORMED[name]())
        assert expected is not None, name
        assert _outcome(schedule_from_dict, MALFORMED[name]()) == expected

    def test_duplicate_order_numbers(self):
        """Documents carry no order numbers; a built tree can repeat one."""
        root = IndexNode(
            "1", [IndexNode("2", [DataNode("A", 1.0)]), DataNode("B", 1.0)]
        )
        root.order = root.children[0].order = 4
        expected = (TreeError, "duplicate index order number 4")
        tree = IndexTree(root, renumber=False, validate=False)
        assert _outcome(lambda _: tree.validate(), None) == expected
        assert _outcome(_frozen_validate_tree, root) == expected

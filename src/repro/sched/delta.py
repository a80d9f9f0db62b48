"""Canonical plan documents and structural deltas — the store's codec.

The versioned store (:mod:`repro.sched.store`) persists every published
plan as a *canonical document*: a JSON-able dict built from the same
serialisation :mod:`repro.io.json_io` uses for schedules, extended with
the :class:`~repro.planners.PlanResult` provenance (cost, method,
stats). Canonical means one byte sequence per logical plan —
:func:`canonical_bytes` sorts keys, strips whitespace and refuses
non-finite floats — which is what makes content addressing
(:func:`content_id`) and the store's byte-exact round-trip gate
meaningful.

Consecutive versions of a workload can share most of their document,
so the store can encode a follow-up version as a **structural delta**:
:func:`delta` diffs two documents into a flat list of path-addressed
ops, :func:`apply_delta` replays them. A changed tree or a drift that
touches every weight makes a delta larger than the document itself, so
:func:`delta` takes a size ``limit`` and stops once the ops cannot fit
under it. The pair satisfies the exact-inverse property the hypothesis
suite locks::

    canonical_bytes(apply_delta(delta(a, b), a)) == canonical_bytes(b)

for *any* two JSON documents — not just plan documents — because the
diff recurses structurally and only short-circuits on scalars whose
type **and** value agree (``2`` and ``2.0`` compare equal in Python but
serialise differently, so they diff).
"""

from __future__ import annotations

import copy
import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import Any

from ..broadcast.schedule import BroadcastSchedule
from ..exceptions import ReproError
from ..io.json_io import schedule_from_dict
from ..planners import PlanResult
from ..tree.node import IndexNode, Node

__all__ = [
    "PLAN_FORMAT",
    "DELTA_FORMAT",
    "DeltaError",
    "plan_bytes",
    "plan_to_doc",
    "plan_from_doc",
    "canonical_bytes",
    "content_id",
    "delta",
    "apply_delta",
]

PLAN_FORMAT = "broadcast-alloc/plan"
DELTA_FORMAT = "broadcast-alloc/plan-delta"


class DeltaError(ReproError):
    """A delta document cannot be applied to its base."""


def _scalarize(value: Any):
    """JSON default hook: numpy scalars serialise as their Python value."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"{type(value).__name__} is not JSON-serialisable in a plan document"
    )


#: ``allow_nan=False`` because ``NaN``/``Infinity`` are not JSON — a
#: document containing them could never round-trip through the store.
_CANONICAL = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    ensure_ascii=True,
    allow_nan=False,
    default=_scalarize,
)


def canonical_bytes(doc: Any) -> bytes:
    """The one byte sequence of a document: sorted keys, no whitespace."""
    return _CANONICAL.encode(doc).encode()


def content_id(doc: Any) -> str:
    """SHA-256 of the canonical bytes — the document's store address."""
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def plan_bytes(result: PlanResult) -> bytes:
    """The canonical bytes of a :class:`~repro.planners.PlanResult`'s document.

    The schedule is written straight to canonical JSON in one preorder
    pass (:func:`_schedule_text`), with no document built first.
    ``stats`` is the one free-form part, so it alone goes through
    ``json`` first: a key that is not a string sorts as a string only
    after that round trip. These bytes equal
    ``canonical_bytes(plan_to_doc(result))``.
    """
    stats = canonical_bytes(json.loads(canonical_bytes(result.stats)))
    return "".join((
        '{"cost":', _json(result.cost),
        ',"format":"', PLAN_FORMAT, '","method":', _json(result.method),
        ',"schedule":', _schedule_text(result.schedule),
        ',"stats":', stats.decode(),
        ',"version":1}',
    )).encode()


def _json(value: Any) -> str:
    """One value as canonical JSON text."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float and value - value == 0:  # finite
        return float.__repr__(value)
    return _CANONICAL.encode(value)


def _schedule_text(schedule: BroadcastSchedule) -> str:
    """``canonical_bytes(schedule_to_dict(schedule))``, as text, in one pass.

    Keys are written in sorted order. A string, a finite float and a
    pair of ints are written as ``json`` writes them; every other value
    goes through the canonical encoder, so it is written, or refused,
    exactly as :func:`canonical_bytes` would.
    """
    placement = schedule._placement
    rows: list[str] = []
    parts: list[str] = []
    row = rows.append
    part = parts.append

    def write(node: Node) -> None:
        channel, slot = cell = placement[node]
        if type(channel) is int and type(slot) is int:
            row(f"[{channel},{slot}]")
        else:
            row(_json(cell))
        label = _json(node.label)
        if isinstance(node, IndexNode):
            part('{"children":[')
            for index, child in enumerate(node.children):
                if index:
                    part(",")
                write(child)
            part(f'],"label":{label},"type":"index"}}')
            return
        weight = _json(node.weight)
        if node.key is None:
            part(f'{{"label":{label},"type":"data","weight":{weight}}}')
        else:
            part(
                f'{{"key":{_json(node.key)},"label":{label},'
                f'"type":"data","weight":{weight}}}'
            )

    write(schedule.tree.root)
    return "".join((
        f'{{"channels":{_json(schedule.channels)},'
        '"format":"broadcast-alloc/schedule","placement":[',
        ",".join(rows),
        '],"tree":{"format":"broadcast-alloc/tree","root":',
        "".join(parts),
        ',"version":1},"version":1}',
    ))


def plan_to_doc(result: PlanResult) -> dict:
    """Serialise a :class:`~repro.planners.PlanResult` to its document.

    The round trip through ``json`` normalises container types (tuples
    become lists, numpy scalars become Python scalars) so the document
    is *already* canonical-typed: serialising the result of
    :func:`plan_from_doc` reproduces it byte for byte.
    """
    return json.loads(plan_bytes(result))


def plan_from_doc(doc: dict) -> PlanResult:
    """Rebuild the :class:`~repro.planners.PlanResult` of a document.

    The result keeps no reference into ``doc`` (``stats`` is copied), so
    the store hands its cached, verified documents here without copying.
    """
    if not isinstance(doc, dict) or doc.get("format") != PLAN_FORMAT:
        raise DeltaError("not a broadcast-alloc plan document")
    if doc.get("version") != 1:
        raise DeltaError(f"unknown plan document version {doc.get('version')!r}")
    try:
        schedule = schedule_from_dict(doc["schedule"])
        return PlanResult(
            schedule,
            doc["cost"],
            doc["method"],
            copy.deepcopy(doc.get("stats", {})),
        )
    except (KeyError, TypeError) as error:
        raise DeltaError(f"malformed plan document: {error}") from error


# ---------------------------------------------------------------------------
# structural diff / patch
# ---------------------------------------------------------------------------

def delta(
    base: Any, target: Any, *, limit: int | None = None
) -> list[dict] | None:
    """Diff two JSON documents into path-addressed ops.

    Ops (each a JSON-able dict):

    * ``{"op": "set", "path": [...], "value": v}`` — replace the node at
      ``path`` (an empty path replaces the whole document);
    * ``{"op": "del", "path": [...]}`` — remove a dict key;
    * ``{"op": "push", "path": [...], "values": [...]}`` — extend the
      list at ``path``;
    * ``{"op": "trim", "path": [...], "length": n}`` — shrink the list
      at ``path`` to ``n`` elements.

    Paths mix string dict keys and integer list indices. The op list is
    deterministic (dict keys are visited sorted), so the same pair of
    documents always produces the same delta — and therefore the same
    content-addressed delta object in the store.

    With ``limit``, the diff returns ``None`` as soon as a lower bound on
    ``len(canonical_bytes(ops))`` reaches ``limit``: a caller that only
    wants a delta smaller than some size stops paying for one that
    cannot be.
    """
    differ = _Differ(limit)
    try:
        differ.diff(base, target, 1)
    except _OverLimit:
        return None
    return differ.ops


class _OverLimit(Exception):
    """The ops' size floor reached the caller's limit."""


def _frame(op: dict, filler: int) -> int:
    """Canonical bytes of ``op`` minus ``filler`` placeholder bytes."""
    return len(canonical_bytes(op)) - filler


# Each op kind's bytes around its path and value, measured on an empty
# path ("[]") and a one-byte value or length ("0").
_SET_FRAME = _frame({"op": "set", "path": [], "value": 0}, 3)
_DEL_FRAME = _frame({"op": "del", "path": []}, 2)
_PUSH_FRAME = _frame({"op": "push", "path": [], "values": 0}, 3)
_TRIM_FRAME = _frame({"op": "trim", "path": [], "length": 0}, 3)


def _floor(value: Any) -> int:
    """Fewest canonical bytes ``value`` can take.

    Numbers are exact (``json`` writes ``repr``); a string takes its
    quotes and at least one byte per character, a container its
    brackets and a byte and a separator per element.
    """
    kind = type(value)
    if kind is str:
        return len(value) + 2
    if kind is float or kind is int:
        return len(repr(value))
    if kind is list or kind is dict:
        return 2 * len(value) + 1 if value else 2
    if value is None or value is True or value is False:
        return 4
    return 1


#: Exact types of the JSON scalars: a pair of them is compared in
#: place, with no call.
_LEAVES = frozenset({str, int, float, bool, type(None)})


class _Differ:
    """One :func:`delta` call: the ops so far and a floor on their size.

    ``path`` is the path of the node being diffed, extended and
    shortened in place; an op copies it only when emitted. ``diff``
    carries ``size``, a floor on the bytes ``path`` takes as canonical
    JSON (one short of "[]" for the empty path): each step adds its own
    floor plus a separator, and the brackets stand in for the first
    step's separator.
    """

    __slots__ = ("ops", "floor", "limit", "path")

    def __init__(self, limit: int | None) -> None:
        self.ops: list[dict] = []
        # "[" and "]" of the op list, less the separator the first op
        # does not take.
        self.floor = 1
        self.limit = limit
        self.path: list = []

    def emit(self, op: dict, floor: int) -> None:
        self.ops.append(op)
        if self.limit is not None:
            self.floor += floor + 1
            if self.floor >= self.limit:
                raise _OverLimit

    def set_leaf(self, step: Any, value: Any, size: int) -> None:
        """:meth:`emit` the op setting scalar ``value`` at ``path + [step]``.

        ``size`` is the floor of that path. The scalar's floor is
        :func:`_floor`'s, inlined.
        """
        self.ops.append(
            {"op": "set", "path": [*self.path, step], "value": value}
        )
        if self.limit is not None:
            kind = type(value)
            self.floor += _SET_FRAME + 1 + (size if size > 2 else 2) + (
                len(repr(value)) if kind is int or kind is float
                else len(value) + 2 if kind is str
                else 4
            )
            if self.floor >= self.limit:
                raise _OverLimit

    def diff(self, a: Any, b: Any, size: int) -> None:
        path = self.path
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted([key for key in a if key not in b]):
                self.emit(
                    {"op": "del", "path": [*path, key]},
                    _DEL_FRAME + max(2, size + _floor(key) + 1),
                )
            for key in sorted(b):
                # Keys are strings in JSON documents: inline their floor.
                step = size + (
                    len(key) + 3 if type(key) is str else _floor(key) + 1
                )
                if key not in a:
                    value = b[key]
                    self.emit(
                        {"op": "set", "path": [*path, key], "value": value},
                        _SET_FRAME + max(2, step) + _floor(value),
                    )
                    continue
                x, y = a[key], b[key]
                kind = type(x)
                if kind in _LEAVES and type(y) in _LEAVES:
                    # Two scalars, as below, without the call.
                    if kind is type(y) and x == y and (
                        kind is not float or repr(x) == repr(y)
                    ):
                        continue
                    self.set_leaf(key, y, step)
                    continue
                path.append(key)
                self.diff(x, y, step)
                path.pop()
            return
        if isinstance(a, list) and isinstance(b, list):
            common = min(len(a), len(b))
            step = size + 2
            for index in range(common):
                x, y = a[index], b[index]
                kind = type(x)
                if kind in _LEAVES and type(y) in _LEAVES:
                    if kind is type(y) and x == y and (
                        kind is not float or repr(x) == repr(y)
                    ):
                        continue
                    self.set_leaf(index, y, step)
                    continue
                path.append(index)
                self.diff(x, y, step)
                path.pop()
            if len(b) > len(a):
                values = b[common:]
                self.emit(
                    {"op": "push", "path": list(path), "values": values},
                    _PUSH_FRAME + max(2, size) + _floor(values),
                )
            elif len(b) < len(a):
                self.emit(
                    {"op": "trim", "path": list(path), "length": len(b)},
                    _TRIM_FRAME + max(2, size) + _floor(len(b)),
                )
            return
        # Scalars, or mismatched containers: ``type`` must agree as well
        # as value. bool/int and int/float cross-compare equal in Python
        # but serialise differently, which would break byte-exactness.
        # The same trap hides inside float equality itself (-0.0 == 0.0
        # but they serialise as "-0.0" and "0.0"), hence the repr check.
        if type(a) is type(b) and a == b:
            if not isinstance(a, float) or repr(a) == repr(b):
                return
        self.emit(
            {"op": "set", "path": list(path), "value": b},
            _SET_FRAME + max(2, size) + _floor(b),
        )


def _resolve(doc: Any, path: list) -> Any:
    node = doc
    for step in path:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError) as error:
            raise DeltaError(f"delta path {path!r} does not resolve") from error
    return node


def apply_delta(ops: list[dict], base: Any) -> Any:
    """Replay a :func:`delta` op list onto ``base`` (left untouched)."""
    doc = copy.deepcopy(base)
    for op in ops:
        try:
            kind = op["op"]
            path = op["path"]
        except (KeyError, TypeError) as error:
            raise DeltaError(f"malformed delta op {op!r}") from error
        if kind == "set":
            if not path:
                doc = copy.deepcopy(op["value"])
                continue
            parent = _resolve(doc, path[:-1])
            try:
                parent[path[-1]] = copy.deepcopy(op["value"])
            except (IndexError, TypeError) as error:
                raise DeltaError(
                    f"cannot set {path!r} on the base document"
                ) from error
        elif kind == "del":
            if not path:
                raise DeltaError("cannot delete the document root")
            parent = _resolve(doc, path[:-1])
            try:
                del parent[path[-1]]
            except (KeyError, IndexError, TypeError) as error:
                raise DeltaError(
                    f"cannot delete {path!r} from the base document"
                ) from error
        elif kind == "push":
            target = _resolve(doc, path)
            if not isinstance(target, list):
                raise DeltaError(f"push target {path!r} is not a list")
            target.extend(copy.deepcopy(op["values"]))
        elif kind == "trim":
            target = _resolve(doc, path)
            if not isinstance(target, list):
                raise DeltaError(f"trim target {path!r} is not a list")
            length = op["length"]
            if not 0 <= length <= len(target):
                raise DeltaError(
                    f"trim length {length} out of range for {path!r}"
                )
            del target[length:]
        else:
            raise DeltaError(f"unknown delta op {kind!r}")
    return doc

"""Canonical plan documents and a structural diff — the store's codec.

The versioned store (:mod:`repro.sched.store`) persists every published
plan as a *canonical document*: a JSON-able dict built from the same
serialisation :mod:`repro.io.json_io` uses for schedules, extended with
the :class:`~repro.planners.PlanResult` provenance (cost, method,
stats). Canonical means one byte sequence per logical plan —
:func:`canonical_bytes` sorts keys, strips whitespace and refuses
non-finite floats — which is what makes content addressing
(:func:`content_id`) and the store's byte-exact round-trip gate
meaningful.

Two documents can also be compared structurally: :func:`delta` diffs
them into a flat list of path-addressed ops, which ``repro sched diff``
prints. The ops are exact for *any* two JSON documents — not just plan
documents — because the diff recurses structurally and only
short-circuits on scalars whose type **and** value agree (``2`` and
``2.0`` compare equal in Python but serialise differently, so they
diff). The hypothesis suite replays them onto the base document and
checks the canonical bytes of the target come back. The store itself
writes every version whole and never reads a delta.
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
    "PlanDocumentError",
    "plan_bytes",
    "plan_to_doc",
    "plan_from_doc",
    "canonical_bytes",
    "content_id",
    "delta",
]

PLAN_FORMAT = "broadcast-alloc/plan"


class PlanDocumentError(ReproError):
    """A document is not a plan document this codec reads."""


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
    # A recursive closure is a reference cycle: break it, or ``rows`` and
    # ``parts`` wait for the cyclic collector.
    del write
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
        raise PlanDocumentError("not a broadcast-alloc plan document")
    if doc.get("version") != 1:
        raise PlanDocumentError(
            f"unknown plan document version {doc.get('version')!r}"
        )
    try:
        schedule = schedule_from_dict(doc["schedule"])
        return PlanResult(
            schedule,
            doc["cost"],
            doc["method"],
            copy.deepcopy(doc.get("stats", {})),
        )
    except (KeyError, TypeError) as error:
        raise PlanDocumentError(f"malformed plan document: {error}") from error


# ---------------------------------------------------------------------------
# structural diff
# ---------------------------------------------------------------------------

def delta(base: Any, target: Any) -> list[dict]:
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
    documents always produces the same delta.
    """
    ops: list[dict] = []
    _diff(base, target, [], ops)
    return ops


def _diff(a: Any, b: Any, path: list, ops: list[dict]) -> None:
    """Append to ``ops`` the ops turning ``a`` into ``b``.

    ``path`` is the path of ``a``, extended and shortened in place; an
    op copies it only when emitted.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted([key for key in a if key not in b]):
            ops.append({"op": "del", "path": [*path, key]})
        for key in sorted(b):
            if key not in a:
                ops.append({"op": "set", "path": [*path, key], "value": b[key]})
                continue
            path.append(key)
            _diff(a[key], b[key], path, ops)
            path.pop()
        return
    if isinstance(a, list) and isinstance(b, list):
        common = min(len(a), len(b))
        for index in range(common):
            path.append(index)
            _diff(a[index], b[index], path, ops)
            path.pop()
        if len(b) > len(a):
            ops.append({"op": "push", "path": list(path), "values": b[common:]})
        elif len(b) < len(a):
            ops.append({"op": "trim", "path": list(path), "length": len(b)})
        return
    # Scalars, or mismatched containers: ``type`` must agree as well as
    # value. bool/int and int/float cross-compare equal in Python but
    # serialise differently, which would break byte-exactness. The same
    # trap hides inside float equality itself (-0.0 == 0.0 but they
    # serialise as "-0.0" and "0.0"), hence the repr check.
    if type(a) is type(b) and a == b:
        if not isinstance(a, float) or repr(a) == repr(b):
            return
    ops.append({"op": "set", "path": list(path), "value": b})

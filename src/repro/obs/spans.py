"""Causal spans over logical air time, composing with the ``Tracer`` protocol.

A *span* is one named stretch of logical slots attributed to one
component — a server replan, a store publish, a station cutover, one
tuner walk segment — linked into a causal tree by ``(trace_id,
span_id, parent_id)``. Spans ride the existing event stream as
:class:`~repro.obs.events.SpanFinished` records (emitted once, at
completion), so every sink, file format, and CLI that understands
trace events already understands spans.

:class:`SpanTracer` is a *decorator* over any existing tracer: it
forwards ``emit`` to the wrapped sink and mirrors its ``enabled``
flag, so it slots into every ``tracer=`` parameter in the codebase
without signature changes and keeps the NULL-guard zero-overhead
contract — a disabled sink means call sites never construct a span.
Components that know how to open spans detect the capability with
:func:`span_tracer_of` (which just isinstance-checks), and components
that only emit flat events keep working unchanged.

Identifiers are **deterministic**: each tracer allocates u32 ids from
a counter salted by its ``namespace`` (crc32-derived high bits), never
from clocks or randomness, so a seeded run produces the same causal
tree every time and ids fit the air envelope's u32 fields. A root
span's ``span_id`` doubles as its ``trace_id``.

Reconstruction (:func:`span_tree`) and the containment checks
(:func:`check_span_tree`) close the loop with :mod:`repro.obs.attrib`:
a walk's segment spans tile its access time exactly, so
``sum(segment durations) == attrib access_time`` per walk and
``sum(child spans) <= parent`` on the infra chain.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .events import (
    NULL_TRACER,
    SpanFinished,
    Tracer,
    WalkFinished,
    event_from_dict,
)

__all__ = [
    "TraceContext",
    "NO_TRACE",
    "ActiveSpan",
    "SpanTracer",
    "span_tracer_of",
    "SpanNode",
    "span_tree",
    "check_span_tree",
    "reconcile_with_attrib",
    "format_span_tree",
]

_U32 = 0xFFFFFFFF


class TraceContext(NamedTuple):
    """The compact wire-propagated form of a span: who to blame.

    ``trace_id`` names the causal tree, ``span_id`` the node new work
    should parent onto. Both are u32; ``(0, 0)`` means "no context".
    """

    trace_id: int
    span_id: int

    @property
    def present(self) -> bool:
        return self.trace_id != 0 or self.span_id != 0


NO_TRACE = TraceContext(0, 0)


class ActiveSpan:
    """A span that has begun; call :meth:`end` exactly once to emit it.

    Holds only logical state (ids, name, start slot, attrs) — no
    clocks. ``context`` is what travels on the wire so downstream work
    can parent onto this span.
    """

    __slots__ = (
        "_tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "component",
        "start_slot",
        "attrs",
        "ended",
    )

    def __init__(
        self,
        tracer: "SpanTracer",
        *,
        trace_id: int,
        span_id: int,
        parent_id: int,
        name: str,
        component: str,
        start_slot: int,
        attrs: Iterable = (),
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.start_slot = start_slot
        self.attrs = list(
            attrs.items() if isinstance(attrs, Mapping) else attrs
        )
        self.ended = False

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def child(
        self,
        name: str,
        start_slot: int,
        *,
        component: str = "",
        attrs: Iterable = (),
    ) -> "ActiveSpan":
        """Open a span parented onto this one, in the same trace."""
        return self._tracer.begin(
            name,
            start_slot,
            parent=self.context,
            component=component or self.component,
            attrs=attrs,
        )

    def end(self, end_slot: int, **attrs) -> SpanFinished:
        """Close the span at ``end_slot`` (inclusive) and emit it."""
        if self.ended:
            raise RuntimeError(f"span {self.name!r} already ended")
        self.ended = True
        if attrs:
            self.attrs.extend(attrs.items())
        return self._tracer.finish(
            name=self.name,
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_slot=self.start_slot,
            end_slot=end_slot,
            component=self.component,
            attrs=self.attrs,
        )


class SpanTracer:
    """Span-capable decorator over any :class:`~repro.obs.events.Tracer`.

    Forwards every ``emit`` to the wrapped ``sink`` and mirrors its
    ``enabled`` flag, so it can stand wherever a plain tracer does.
    ``begin``/``finish`` allocate deterministic ids and emit
    :class:`SpanFinished` records through the same sink.

    ``namespace`` salts the id space (high bits from crc32) so two
    tracers feeding one sink — e.g. per-shard tracers in a cluster —
    cannot collide; within one namespace ids are a plain counter.
    """

    __slots__ = ("sink", "enabled", "namespace", "_base", "_next")

    def __init__(self, sink: Tracer | None = None, *, namespace: str = "") -> None:
        self.sink = NULL_TRACER if sink is None else sink
        self.enabled = self.sink.enabled
        self.namespace = namespace
        if namespace:
            self._base = (zlib.crc32(namespace.encode("utf-8")) & 0x7FF) << 20
        else:
            self._base = 0
        self._next = 1

    def emit(self, event) -> None:
        self.sink.emit(event)

    def _alloc(self) -> int:
        span_id = (self._base | (self._next & 0xFFFFF)) & _U32
        self._next += 1
        return span_id or 1

    def begin(
        self,
        name: str,
        start_slot: int,
        *,
        parent: TraceContext | None = None,
        component: str = "",
        attrs: Iterable = (),
    ) -> ActiveSpan:
        """Open a span; a missing/absent parent makes it a trace root."""
        span_id = self._alloc()
        if parent is not None and parent.present:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = span_id, 0
        return ActiveSpan(
            self,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            component=component,
            start_slot=start_slot,
            attrs=attrs,
        )

    def finish(
        self,
        *,
        name: str,
        trace_id: int,
        span_id: int = 0,
        parent_id: int = 0,
        start_slot: int,
        end_slot: int,
        component: str = "",
        attrs: Iterable = (),
    ) -> SpanFinished:
        """Emit a completed span in one shot (id allocated if absent).

        A zero ``trace_id`` makes the span a root of its own fresh
        trace — the span_id doubles as the trace_id, exactly as in
        :meth:`begin`. Walk segments that ran under an untraced
        schedule (the bootstrap program) use this so they still tile
        the walk's access time instead of vanishing.
        """
        span_id = (span_id or self._alloc()) & _U32
        span = SpanFinished(
            trace_id=(trace_id & _U32) or span_id,
            span_id=span_id,
            parent_id=parent_id & _U32,
            name=name,
            start_slot=start_slot,
            end_slot=end_slot,
            component=component,
            attrs=tuple(
                attrs.items() if isinstance(attrs, Mapping) else attrs
            ),
        )
        if self.sink.enabled:
            self.sink.emit(span)
        return span


def span_tracer_of(tracer) -> SpanTracer | None:
    """The span capability of ``tracer``, or ``None``.

    Call sites that *open* spans (station publish, walk segments) use
    this once at setup so the hot path stays a plain ``None`` check.
    """
    return tracer if isinstance(tracer, SpanTracer) else None


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

@dataclass
class SpanNode:
    """One reconstructed span plus its children, sorted by start slot."""

    span: SpanFinished
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def duration_slots(self) -> int:
        return self.span.duration_slots

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def _as_span(record) -> SpanFinished | None:
    if isinstance(record, SpanFinished):
        return record
    if isinstance(record, Mapping) and record.get("kind") == "span_finished":
        return event_from_dict(dict(record))
    return None


def span_tree(
    events: Iterable, *, trace_id: int | None = None
) -> list[SpanNode]:
    """Rebuild causal trees from a mixed event stream.

    Accepts typed events or raw JSONL records (non-span records are
    skipped), optionally filtered to one ``trace_id``. Returns the
    roots sorted by ``(start_slot, span_id)``; orphans — children
    whose parent never closed a span in this stream — surface as
    roots so a truncated ring still renders.
    """
    spans: list[SpanFinished] = []
    for record in events:
        span = _as_span(record)
        if span is None:
            continue
        if trace_id is not None and span.trace_id != trace_id:
            continue
        spans.append(span)
    nodes = {span.span_id: SpanNode(span) for span in spans}
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.span.parent_id)
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    order = lambda n: (n.span.start_slot, n.span.span_id)  # noqa: E731
    for node in nodes.values():
        node.children.sort(key=order)
    roots.sort(key=order)
    return roots


def check_span_tree(roots: list[SpanNode]) -> list[str]:
    """Structural violations of the causal-containment contract.

    Within one parent: children may not start before their parent
    (causality), and ``sum(child spans) <= parent`` is asserted over
    the parent's *infra* children (a store publish and a station
    cutover nested inside one replan). Children carrying a ``walk``
    attr are fan-out — many concurrent walk segments under one
    cutover legitimately overlap *each other* — so they are
    start-checked only.
    """
    problems: list[str] = []
    for root in roots:
        for node in root.walk():
            parent = node.span
            nested = []
            for child_node in node.children:
                child = child_node.span
                if child.start_slot < parent.start_slot:
                    problems.append(
                        f"span {child.name}#{child.span_id} starts at "
                        f"slot {child.start_slot}, before its parent "
                        f"{parent.name}#{parent.span_id} "
                        f"(slot {parent.start_slot})"
                    )
                if "walk" not in dict(child.attrs):
                    nested.append(child)
            if nested:
                total = sum(s.duration_slots for s in nested)
                if total > parent.duration_slots:
                    problems.append(
                        f"children of {parent.name}#{parent.span_id} sum "
                        f"to {total} slots, exceeding the parent's "
                        f"{parent.duration_slots}"
                    )
    return problems


def reconcile_with_attrib(
    events: Iterable,
) -> tuple[dict[int, dict], list[str]]:
    """Cross-check walk segment spans against phase attribution.

    For every walk id that both finished (``walk_finished``) and
    carries segment spans (``walk.run`` / ``walk.restart``), the
    segments must *tile* the walk: their inclusive durations sum
    exactly to the walk's measured access time — the same exactness
    invariant :mod:`repro.obs.attrib` enforces for phases. Returns
    ``(per_walk, problems)`` where ``per_walk[walk]`` holds
    ``{"access_time", "segments", "segment_slots"}``.
    """
    finished: dict[int, int] = {}
    segments: dict[int, list[SpanFinished]] = {}
    for record in events:
        span = _as_span(record)
        if span is not None:
            if span.name in ("walk.run", "walk.restart"):
                attrs = dict(span.attrs)
                walk = int(attrs.get("walk", -1))
                segments.setdefault(walk, []).append(span)
            continue
        if isinstance(record, WalkFinished):
            if not record.abandoned:
                finished[record.walk] = record.access_time
        elif (
            isinstance(record, Mapping)
            and record.get("kind") == "walk_finished"
        ):
            if not record.get("abandoned", False):
                finished[int(record.get("walk", -1))] = int(
                    record["access_time"]
                )
    per_walk: dict[int, dict] = {}
    problems: list[str] = []
    for walk, spans in sorted(segments.items()):
        total = sum(span.duration_slots for span in spans)
        access = finished.get(walk)
        per_walk[walk] = {
            "access_time": access,
            "segments": len(spans),
            "segment_slots": total,
        }
        if access is None:
            continue
        if total != access:
            problems.append(
                f"walk {walk}: segment spans sum to {total} slots but "
                f"measured access time is {access}"
            )
    return per_walk, problems


def format_span_tree(
    roots: list[SpanNode], *, reconciliation: dict[int, dict] | None = None
) -> str:
    """Render causal trees as an indented text view with durations."""
    lines: list[str] = []
    for root in roots:
        lines.append(
            f"trace {root.span.trace_id:#010x}"
            if root.span.parent_id == 0
            else f"trace {root.span.trace_id:#010x} (orphaned subtree)"
        )
        _render(root, "", lines)
    if reconciliation:
        lines.append("")
        lines.append("walk segment reconciliation (vs obs attrib):")
        for walk, info in sorted(reconciliation.items()):
            access = info["access_time"]
            verdict = (
                "exact"
                if access is not None and info["segment_slots"] == access
                else ("unfinished" if access is None else "MISMATCH")
            )
            lines.append(
                f"  walk {walk}: {info['segments']} segment(s), "
                f"{info['segment_slots']} slot(s), "
                f"access_time={access if access is not None else '?'} "
                f"[{verdict}]"
            )
    return "\n".join(lines)


def _render(node: SpanNode, indent: str, lines: list[str]) -> None:
    span = node.span
    attrs = dict(span.attrs)
    extras = ""
    if attrs:
        shown = ", ".join(
            f"{k}={attrs[k]}" for k in sorted(attrs) if k != "note"
        )
        if shown:
            extras = f"  {{{shown}}}"
    lines.append(
        f"{indent}- {span.name} "
        f"[{span.start_slot}..{span.end_slot}] "
        f"({span.duration_slots} slot(s))"
        f"{'  <' + span.component + '>' if span.component else ''}"
        f"{extras}"
    )
    for child in node.children:
        _render(child, indent + "  ", lines)

"""One request facade over every walk engine.

A request can be served by the scalar walk over the object graph, by
the same walk over the program's encoded frames, or by the vectorised
batch engine. Mirroring :mod:`repro.planners`, this module names them
in a **registry** instead of a spelling per engine:

* :func:`request` — the one call: ``request(program, target, tune_slot,
  engine="object")``;
* :class:`WalkEngine` — the protocol an engine implements;
* :func:`register_engine` / :func:`engines` — how strategies are named
  and discovered, exactly like planners.

Built-in engines:

``"object"``
    :func:`~repro.client.protocol.object_walk`, switching to
    :func:`~repro.client.protocol.recovering_walk` when ``faults=`` or
    ``recovery=`` is given.
``"wire"``
    :func:`~repro.io.wire_client.wire_walk` over the program encoded to
    frames (cached on the program); lossless air only. Returns the
    walk's :class:`~repro.client.walk.WalkResult`.
``"batch"``
    :func:`repro.engine.run_batch` over the dense compilation (cached
    on the program) — the vectorised engine, here running a batch of
    one so a single request and a 10⁶-walk sweep share one code path.

The ``"object"`` and ``"wire"`` engines both drive the one scalar walk,
:class:`~repro.client.walk.PointerWalk`; only where its buckets come
from differs. Every engine measures the *same* walk: at loss 0 the
returned access, tuning, probe and data times are bit-identical across
all three, the invariant the differential tests lock.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..broadcast.pointers import BroadcastProgram
from ..exceptions import ReproError
from ..faults import FaultConfig, FaultInjector
from ..obs.events import Tracer
from ..tree.node import DataNode, Node
from .protocol import (
    AccessRecord,
    RecoveryPolicy,
    object_walk,
    recovering_walk,
)

__all__ = [
    "EngineNotFound",
    "WalkEngine",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engines",
    "request",
    "invalidate_request_caches",
]

#: Per-program memoisation slots the engines fill lazily. All of them
#: are derived purely from the program instance, so they stay valid for
#: its lifetime — *unless* a schedule-version cutover retires the
#: program, at which point holding them only pins dead frame grids and
#: dense compilations in memory (see :func:`invalidate_request_caches`).
_REQUEST_CACHE_KEYS = (
    "_request_leaves",
    "_request_frames",
    "_request_dense",
    "_request_data_ids",
)


def invalidate_request_caches(program: BroadcastProgram) -> int:
    """Drop every engine cache memoised on ``program``.

    Called by the schedule-version layer (:mod:`repro.sched`) when a
    cutover retires a program: its cached wire frames and dense
    compilation describe an allocation that is no longer on air, and a
    consumer that kept the program object must not be served stale
    compiled state if the instance is ever reused for a new version.
    Returns how many cache slots were dropped.
    """
    removed = 0
    for key in _REQUEST_CACHE_KEYS:
        if program.__dict__.pop(key, None) is not None:
            removed += 1
    return removed


class EngineNotFound(ReproError, KeyError):
    """No walk engine is registered under the requested name."""

    def __init__(self, name: str, available: list[str]) -> None:
        super().__init__(
            f"no walk engine registered as {name!r}; available: "
            f"{', '.join(available)}"
        )
        self.name = name


@runtime_checkable
class WalkEngine(Protocol):
    """The walk-engine protocol.

    An engine is any callable with this signature; everything after the
    (program, target, tune slot) triple is keyword-only. An engine that
    does not support a given option (the wire engine cannot inject
    faults, the batch engine cannot narrate a tracer) must raise
    ``ValueError`` rather than silently ignore it.
    """

    def __call__(
        self,
        program: BroadcastProgram,
        target: DataNode,
        tune_slot: int,
        *,
        recovery: RecoveryPolicy | None = None,
        faults: FaultInjector | FaultConfig | None = None,
        tracer: Tracer | None = None,
        walk_id: int | None = None,
    ) -> AccessRecord: ...

    # Engines may additionally accept ``trace=(trace_id, span_id)`` —
    # the causal context of the publish serving the walk (see
    # :mod:`repro.obs.spans`); :func:`request` forwards it only when
    # set, so engines that predate it keep working.


_REGISTRY: dict[str, WalkEngine] = {}


def register_engine(name: str, engine: WalkEngine | None = None):
    """Register ``engine`` under ``name`` (usable as a decorator).

    Re-registering a name overwrites it, the same shadowing rule as
    :func:`repro.planners.register`.
    """
    if engine is None:

        def decorator(func: WalkEngine) -> WalkEngine:
            _REGISTRY[name] = func
            return func

        return decorator
    _REGISTRY[name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove a registered engine (missing names are ignored)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> WalkEngine:
    """Resolve a registry name to its engine."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EngineNotFound(name, engines()) from None


def engines() -> list[str]:
    """Registered engine names, sorted."""
    return sorted(_REGISTRY)


def request(
    program: BroadcastProgram,
    target: Node | str,
    tune_slot: int,
    *,
    engine: str = "object",
    recovery: RecoveryPolicy | None = None,
    faults: FaultInjector | FaultConfig | None = None,
    tracer: Tracer | None = None,
    walk_id: int | None = None,
    trace: tuple[int, int] | None = None,
) -> AccessRecord:
    """Execute one client request through the named engine.

    ``target`` is a data node or its label. ``faults``/``recovery``
    switch the walk to the loss-recovering protocol (engines that
    cannot model faults raise ``ValueError``); ``tracer``/``walk_id``
    narrate the walk where the engine supports narration. ``trace`` is
    an optional ``(trace_id, span_id)`` causal context the walk's
    segment spans parent onto (wire engine only) — forwarded to the
    engine only when set, so custom engines without the parameter keep
    working.
    """
    node = _resolve_target(program, target)
    kwargs: dict = dict(
        recovery=recovery, faults=faults, tracer=tracer, walk_id=walk_id
    )
    if trace is not None:
        kwargs["trace"] = trace
    return get_engine(engine)(program, node, tune_slot, **kwargs)


def _resolve_target(program: BroadcastProgram, target: Node | str) -> DataNode:
    """A data node for ``target``; labels resolve through a cached map."""
    if isinstance(target, Node):
        if not isinstance(target, DataNode):
            raise ValueError("targets must be data nodes")
        return target
    leaves = program.__dict__.get("_request_leaves")
    if leaves is None:
        leaves = {
            leaf.label: leaf for leaf in program.schedule.tree.data_nodes()
        }
        program.__dict__["_request_leaves"] = leaves
    try:
        return leaves[target]
    except KeyError:
        raise ValueError(
            f"no data item labelled {target!r} in the program's catalog"
        ) from None


# ---------------------------------------------------------------------------
# Built-in engines
# ---------------------------------------------------------------------------

@register_engine("object")
def object_engine(
    program: BroadcastProgram,
    target: DataNode,
    tune_slot: int,
    *,
    recovery: RecoveryPolicy | None = None,
    faults: FaultInjector | FaultConfig | None = None,
    tracer: Tracer | None = None,
    walk_id: int | None = None,
) -> AccessRecord:
    """The object-graph walk; recovery-aware when faults/recovery given."""
    if faults is not None or recovery is not None:
        return recovering_walk(
            program, target, tune_slot,
            faults=faults, policy=recovery, tracer=tracer, walk_id=walk_id,
        )
    return object_walk(
        program, target, tune_slot, tracer=tracer, walk_id=walk_id
    )


@register_engine("wire")
def wire_engine(
    program: BroadcastProgram,
    target: DataNode,
    tune_slot: int,
    *,
    recovery: RecoveryPolicy | None = None,
    faults: FaultInjector | FaultConfig | None = None,
    tracer: Tracer | None = None,
    walk_id: int | None = None,
    trace: tuple[int, int] | None = None,
):
    """The frame-level walk over the program's encoded cycle.

    The encoding is cached on the program instance — a request facade
    that re-serialised the whole cycle per call would make the wire
    engine unusable for sweeps. Faults belong to the transport at this
    level (see :mod:`repro.net`), not the walk, so they are rejected.
    """
    if faults is not None or recovery is not None:
        raise ValueError(
            "the wire engine replays lossless frames; inject faults at "
            "the transport (repro.net) or use engine='object'/'batch'"
        )
    # Imported lazily: repro.io builds on repro.client.walk, and eager
    # imports here would close an import cycle through the package inits.
    from ..io.wire import encode_program
    from ..io.wire_client import wire_walk

    frames = program.__dict__.get("_request_frames")
    if frames is None:
        frames = encode_program(program)
        program.__dict__["_request_frames"] = frames
    key = str(target.key) if target.key is not None else target.label
    return wire_walk(
        frames, key, tune_slot,
        tracer=tracer, walk_id=walk_id, trace_context=trace,
    )


@register_engine("batch")
def batch_engine(
    program: BroadcastProgram,
    target: DataNode,
    tune_slot: int,
    *,
    recovery: RecoveryPolicy | None = None,
    faults: FaultInjector | FaultConfig | None = None,
    tracer: Tracer | None = None,
    walk_id: int | None = None,
) -> AccessRecord:
    """The vectorised engine, run as a batch of one.

    The dense compilation (and the node → data-id map) is cached on the
    program, so a loop of single requests pays the compile once — and a
    caller that wants real throughput should hand the whole workload to
    :func:`repro.engine.run_batch` directly.
    """
    if tracer is not None:
        raise ValueError(
            "the batch engine is columnar and does not narrate per-walk "
            "traces; use engine='object' or engine='wire' with tracer="
        )
    del walk_id  # correlates trace events, which batch does not emit
    from ..engine import compile_dense, run_batch

    dense = program.__dict__.get("_request_dense")
    ids = program.__dict__.get("_request_data_ids")
    if dense is None or ids is None:
        dense = compile_dense(program)
        ids = {
            id(leaf): index
            for index, leaf in enumerate(program.schedule.tree.data_nodes())
        }
        program.__dict__["_request_dense"] = dense
        program.__dict__["_request_data_ids"] = ids
    records = run_batch(
        dense, [ids[id(target)]], [tune_slot],
        faults=faults, recovery=recovery,
    )
    return records.to_records()[0]

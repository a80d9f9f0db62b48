"""Durable versioned schedule store with zero-downtime cutover.

A broadcast deployment replans continuously
(:class:`~repro.server.BroadcastServer`), and every replan is an
operational event: the plan that is on air right now decides every
client's latency, and a bad replan needs rolling back *without* taking
the station off the air. :mod:`repro.sched` is the subsystem that makes
plans durable, versioned and reversible:

* :mod:`repro.sched.delta` — the canonical plan document
  (:func:`~repro.sched.delta.plan_to_doc`), content addressing over its
  canonical JSON bytes, and a structural delta codec so consecutive
  versions store cheaply (``apply(delta(a, b), a) == b``, byte-exact);
* :mod:`repro.sched.store` — :class:`ScheduleStore`, an append-only
  version log over a content-addressed object directory, with
  integrity-checked loads, snapshot/delta chains, rollback (re-publish
  of a prior version's identical document) and garbage collection of
  unreachable objects;
* live cutover — :meth:`repro.net.BroadcastStation.publish` activates a
  new version atomically at a cycle boundary; airings are stamped with
  their plan version in the air envelope, and a
  :class:`~repro.client.walk.PointerWalk` that sees the stamp change
  mid-walk restarts from the new root per its
  :class:`~repro.client.protocol.RecoveryPolicy` — accounted like a
  retry, never a corrupt read;
* :mod:`repro.sched.harness` — the live-cutover loadtest behind
  ``repro.cli sched loadtest`` and the store benchmark, the
  ``sched-bench`` suite of :mod:`repro.bench`.
"""

from __future__ import annotations

from .delta import (
    DELTA_FORMAT,
    PLAN_FORMAT,
    DeltaError,
    apply_delta,
    canonical_bytes,
    content_id,
    delta,
    plan_from_doc,
    plan_to_doc,
)
from .store import ScheduleStore, StoreError, VersionRecord

__all__ = [
    "PLAN_FORMAT",
    "DELTA_FORMAT",
    "DeltaError",
    "canonical_bytes",
    "content_id",
    "plan_to_doc",
    "plan_from_doc",
    "delta",
    "apply_delta",
    "ScheduleStore",
    "StoreError",
    "VersionRecord",
]

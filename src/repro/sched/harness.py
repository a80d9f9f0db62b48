"""Live-cutover loadtest and store benchmark for :mod:`repro.sched`.

Two executable proofs back the subsystem's claims:

* :func:`run_cutover_loadtest` — a loopback
  :class:`~repro.net.station.BroadcastStation` airing a store-published
  plan, a concurrent tuner fleet walking it, and — *while the fleet is
  in flight* — a replan cut over at a cycle boundary and then rolled
  back at a later one. The gates are the subsystem's contract: frame
  accounting stays exact (every envelope the station sent was consumed
  by exactly one walk read — cutover reads included), no walk is
  abandoned, every delivered payload is intact, and the rolled-back
  version's document is byte-identical to the original's.
* :func:`run_store_bench` — publish/load/rollback latency and on-disk
  size against version count: the ``sched-bench`` suite of
  :mod:`repro.bench`.

Both are deterministic in their measured (non-timing) numbers: plans,
activation slots and walks are pure functions of the seed, because
every publish is scheduled *before* the fleet starts and
:meth:`~repro.net.station.BroadcastStation.airing` is a pure function
of (timeline, coordinates).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import ExitStack
from time import perf_counter

import numpy as np

from ..client.protocol import RecoveryPolicy
from ..net.harness import (
    build_demo_plan,
    demo_labels,
    drive_fleet,
    make_request_trace,
    summarise_walks,
)
from ..net.station import BroadcastStation
from ..obs.events import TeeTracer, Tracer
from ..obs.spans import SpanTracer
from ..perf import PerfRecorder, measure
from ..planners import plan_catalog
from ..workloads.weights import zipf_weights
from .delta import canonical_bytes, plan_to_doc
from .store import ScheduleStore

__all__ = ["run_cutover_loadtest", "run_store_bench"]


async def run_cutover_loadtest(
    *,
    tuners: int = 200,
    items: int = 24,
    channels: int = 3,
    fanout: int = 3,
    seed: int = 2000,
    max_open: int = 128,
    store_dir: str | os.PathLike | None = None,
    perf: PerfRecorder | None = None,
    tracer: Tracer | None = None,
    flight_recorder=None,
) -> dict:
    """Replan and roll back under a live tuner fleet; gate the outcome.

    The timeline: plan A (the baseline) goes on air as store version 1;
    plan B (a deliberately different allocation — same catalog, much
    flatter access skew) is published as version 2 and activated at the
    second cycle boundary, so every fleet walk that tuned into cycle 1
    crosses the cutover when its descend lands in cycle 2; version 2 is
    then rolled back (store version 3, content-identical to version 1)
    and activated two B-cycles later. Every activation is scheduled
    before the fleet starts, which keeps the whole run a pure function
    of ``seed``.

    When ``tracer`` is enabled (or a ``flight_recorder`` is attached)
    the run is span-traced end to end: each scheduled publish opens a
    ``replan`` root span whose children are the ``store.publish`` and
    the ``station.cutover``, the cutover's context rides the air
    envelopes, and every walk segment a cutover restarts parents onto
    it — one trace id from the replan decision down to the tuner
    restart. ``flight_recorder`` (a
    :class:`~repro.obs.recorder.FlightRecorder`) additionally tees
    every component's events into always-on bounded rings and dumps a
    postmortem bundle when a gate-relevant anomaly fires.

    Returns the ``sched-loadtest`` record; ``record["ok"]`` is the AND
    of the acceptance gates (exact frame accounting, zero abandoned
    walks, observed cutovers, intact payloads, byte-exact rollback).
    """
    plan_a = build_demo_plan(
        items=items, channels=channels, fanout=fanout, seed=seed, theta=0.95
    )
    plan_b = build_demo_plan(
        items=items, channels=channels, fanout=fanout, seed=seed, theta=0.35
    )
    perf_recorder = perf if perf is not None else PerfRecorder()

    def component_sink(component: str) -> Tracer | None:
        """``tracer`` teed into the flight ring of ``component``."""
        if flight_recorder is None:
            return tracer
        ring = flight_recorder.ring(component)
        if tracer is None or not tracer.enabled:
            return ring
        return TeeTracer(tracer, ring)

    traced = flight_recorder is not None or (
        tracer is not None and tracer.enabled
    )
    # One span tracer per component namespace: ids cannot collide, and
    # each component's spans land in its own flight ring.
    spans = (
        SpanTracer(component_sink("sched"), namespace="sched")
        if traced
        else None
    )
    tuner_tracer = (
        SpanTracer(component_sink("tuner"), namespace="tuner")
        if traced
        else tracer
    )
    station_tracer = component_sink("station") if traced else tracer

    with ExitStack() as stack:
        if store_dir is None:
            store_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-sched-")
            )
        program_a = plan_a.compile()
        program_b = plan_b.compile()
        # Cut over at the second cycle boundary: every walk tunes into
        # cycle 1 and descends into cycle 2, so every walk crosses it.
        replan_slot = 1 + program_a.cycle_length
        rollback_slot = replan_slot + 2 * program_b.cycle_length

        store = ScheduleStore(
            store_dir,
            perf=perf_recorder,
            tracer=(
                SpanTracer(component_sink("store"), namespace="store")
                if traced
                else None
            ),
            flight_recorder=flight_recorder,
        )
        rec_a = store.publish(plan_a, note="baseline plan")
        # The replan is "in flight" from the decision slot to its
        # activation boundary; the rollback is decided one slot after
        # the replan goes live (causally: it reacts to plan B).
        replan_root = (
            spans.begin(
                "replan",
                1,
                component="server",
                attrs=(("activate_at", replan_slot),),
            )
            if spans is not None
            else None
        )
        rec_b = store.publish(
            plan_b,
            note="replan under live traffic",
            trace=replan_root.context if replan_root is not None else None,
            slot=1,
        )
        rollback_root = (
            spans.begin(
                "replan",
                replan_slot + 1,
                component="server",
                attrs=(("activate_at", rollback_slot), ("rollback", 1)),
            )
            if spans is not None
            else None
        )
        rec_back = store.rollback(
            rec_a.version,
            note="roll back bad replan",
            trace=(
                rollback_root.context if rollback_root is not None else None
            ),
            slot=replan_slot + 1,
        )

        station = BroadcastStation(
            program_a,
            perf=perf_recorder,
            tracer=station_tracer,
            schedule_version=rec_a.version,
        )
        cut_b = (
            replan_root.child(
                "station.cutover",
                2,
                component="station",
                attrs=(("version", rec_b.version),),
            )
            if replan_root is not None
            else None
        )
        station.publish(
            program_b,
            version=rec_b.version,
            activate_at_slot=replan_slot,
            trace=cut_b.context if cut_b is not None else None,
        )
        cut_back = (
            rollback_root.child(
                "station.cutover",
                replan_slot + 2,
                component="station",
                attrs=(("version", rec_back.version),),
            )
            if rollback_root is not None
            else None
        )
        station.publish(
            program_a,
            version=rec_back.version,
            activate_at_slot=rollback_slot,
            trace=cut_back.context if cut_back is not None else None,
        )
        # Activations are scheduled, so the spans' extents are known
        # now; the root tiles exactly into publish + cutover children.
        if spans is not None:
            cut_b.end(replan_slot)
            replan_root.end(replan_slot)
            cut_back.end(rollback_slot)
            rollback_root.end(rollback_slot)

        trace = make_request_trace(
            program_a, tuners, np.random.default_rng(seed)
        )
        # Restarting from the root (twice, for walks that also cross the
        # rollback) costs extra cycles; the deadline must never be what
        # abandons a walk on lossless air.
        policy = RecoveryPolicy(max_cycles=64)
        started = perf_counter()
        async with station:
            walks = await drive_fleet(
                [(0, key, slot) for key, slot in trace],
                [(station.host, station.port)],
                [0.0] * len(trace),
                policy=policy,
                max_open=max_open,
                perf=[perf_recorder],
                tracers=[tuner_tracer],
            )
        report = summarise_walks(
            program_a,
            walks,
            perf=perf_recorder,
            wall_seconds=perf_counter() - started,
        )
        cutovers = sum(walk.cutovers for walk in walks)
        payloads_intact = all(
            walk.payload == b"item:" + walk.key.encode()
            for walk in walks
            if not walk.abandoned
        )
        doc_original = store.doc(rec_a.version)
        doc_restored = store.doc(rec_back.version)
        rollback_exact = (
            canonical_bytes(doc_original)
            == canonical_bytes(doc_restored)
            == canonical_bytes(plan_to_doc(plan_a))
        )

        checks = {
            "zero_unaccounted_frames": report.accounting_ok,
            "zero_abandoned_walks": not report.abandoned,
            "cutovers_observed": cutovers > 0,
            "payloads_intact": payloads_intact,
            "rollback_byte_exact": rollback_exact,
        }
        if flight_recorder is not None:
            for check, passed in checks.items():
                if not passed:
                    flight_recorder.trigger(
                        check,
                        detail=f"sched-loadtest gate {check} failed",
                        tracer=tracer,
                    )
        return {
            "suite": "sched-loadtest",
            "config": {
                "tuners": report.tuners,
                "items": items,
                "channels": channels,
                "fanout": fanout,
                "seed": seed,
                "replan_slot": replan_slot,
                "rollback_slot": rollback_slot,
            },
            "result": {
                "completed": report.completed,
                "abandoned": report.abandoned,
                "cutovers": cutovers,
                "mean_access_time": report.mean_access_time,
                "mean_tuning_time": report.mean_tuning_time,
                "retries": report.retries,
                "wall_seconds": report.wall_seconds,
                "frames_answered": report.frames_answered,
                "frames_read": report.frames_read,
                "unaccounted_frames": report.unaccounted_frames,
                "store": {
                    "versions": [r.to_dict() for r in store.versions()],
                    "size_bytes": store.size_bytes(),
                    "verified_versions": store.verify(),
                },
            },
            "checks": checks,
            "ok": all(checks.values()),
        }


def run_store_bench(
    *,
    versions: int = 40,
    items: int = 24,
    channels: int = 3,
    fanout: int = 3,
    seed: int = 2000,
    snapshot_every: int = 8,
) -> dict:
    """Measure publish/load/rollback latency and store growth.

    Plans ``versions`` distinct catalogs (the same catalog under a
    per-version reshuffled Zipf weighting — consecutive versions are
    similar, which is the workload the delta encoding exists for), then
    times, with :func:`repro.perf.measure`: publishing all of them into
    a fresh store, an integrity-checked load of every version through a
    fresh store handle (cold document cache), and one rollback to
    version 1 on a fresh copy of the published store. The ``*_ms``
    figures are the primitive's ``min``; the size metrics, read off the
    rolled-back store, are deterministic.
    """
    if versions < 2:
        raise ValueError("bench needs at least 2 versions")
    labels = demo_labels(items)
    plans = []
    for version in range(versions):
        rng = np.random.default_rng([seed, version])
        weights = zipf_weights(rng, items, theta=0.95)
        shuffled = np.asarray(weights)[rng.permutation(items)]
        plans.append(
            plan_catalog(
                labels,
                [float(w) for w in shuffled],
                channels,
                method="sorting",
                fanout=fanout,
            )
        )

    with tempfile.TemporaryDirectory(prefix="repro-sched-bench-") as scratch:
        published = os.path.join(scratch, "published")
        work = os.path.join(scratch, "work")

        def empty_dir() -> str:
            shutil.rmtree(published, ignore_errors=True)
            return published

        def publish_all(store_dir: str) -> None:
            store = ScheduleStore(store_dir, snapshot_every=snapshot_every)
            for version, result in enumerate(plans, 1):
                store.publish(result, note=f"bench version {version}")

        def fresh_reader() -> ScheduleStore:
            return ScheduleStore(published, snapshot_every=snapshot_every)

        def load_all(reader: ScheduleStore):
            loaded = [reader.load(v) for v in range(1, versions + 1)]
            return reader, loaded

        def fresh_copy() -> ScheduleStore:
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(published, work)
            return ScheduleStore(work, snapshot_every=snapshot_every)

        def rollback(store: ScheduleStore):
            return store, store.rollback(1, note="bench rollback")

        _, publish = measure(publish_all, setup=empty_dir)
        (reader, loaded), load = measure(load_all, setup=fresh_reader)
        (store, rolled_back), rollback_timing = measure(
            rollback, setup=fresh_copy
        )
        round_trip = all(
            canonical_bytes(plan_to_doc(result))
            == canonical_bytes(reader.doc(version))
            for version, result in enumerate(loaded, 1)
        )
        records = store.versions()
        size = store.size_bytes()
        return {
            "metrics": {
                "store_bytes_per_version": size / len(records),
                "store_bytes_total": size,
                "publish_ms_mean": 1e3 * publish.min / versions,
                "load_ms_mean": 1e3 * load.min / versions,
                "rollback_ms": 1e3 * rollback_timing.min,
            },
            "checks": {
                "round_trip_exact": round_trip,
                "rollback_byte_exact": (
                    rolled_back.content_id == store.record(1).content_id
                ),
                "all_versions_verified": store.verify() == len(records),
            },
            "timings": {
                "publish_seconds": publish.to_dict(),
                "load_seconds": load.to_dict(),
                "rollback_seconds": rollback_timing.to_dict(),
            },
            "detail": {
                "versions_published": len(records),
                "snapshots": sum(r.kind == "snapshot" for r in records),
                "deltas": sum(r.kind == "delta" for r in records),
            },
        }

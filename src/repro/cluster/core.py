"""The sharded station cluster and its workload-partitioned refit loop.

One :class:`~repro.net.station.BroadcastStation` airing one schedule
tops out at one channel group's bandwidth; the ROADMAP's
millions-of-users target means N stations, each airing a schedule tuned
to *its own* slice of the workload, with a routing directory in front.
:class:`StationCluster` is that layer:

* a **partitioner** (:mod:`repro.cluster.partition`) seeds the key→shard
  split;
* each shard's catalog slice is indexed and allocated through
  :func:`repro.planners.plan_catalog` — sharding narrows each catalog,
  which is exactly where the exact search stays affordable;
* a :class:`~repro.cluster.router.ClusterRouter` directory maps every
  requested key to the one shard that airs it;
* :meth:`StationCluster.refit` iterates *partition → plan per shard →
  measure per-shard cost → re-route hot keys → repeat*: per-shard cost
  is **measured**, not assumed — a seeded request sample replays
  through the frame-level simulator with an
  :class:`~repro.obs.attrib.AttributionCollector` feeding shard-labelled
  :class:`~repro.obs.metrics.MetricsRegistry` summaries, and the loop
  moves the costliest shard's hottest keys to the cheapest shard until
  the aggregate expected access time stops improving. Every draw is
  seeded, so a refit is a pure function of (catalog, seed).

The cluster-and-tune shape follows Hang 2024's distributed index-tuning
fleet (see ``/root/related/const-sambird__extend-dist``), with planners
standing in for index tuners and stations for replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..broadcast.pointers import BroadcastProgram
from ..io.wire import DEFAULT_BUCKET_SIZE, encode_program
from ..io.wire_client import wire_walk
from ..obs.attrib import AttributionCollector
from ..obs.events import NULL_TRACER, Tracer
from ..obs.metrics import MetricsRegistry
from ..obs.spans import span_tracer_of
from ..perf import PerfRecorder
from ..planners import PlanResult, plan_catalog
from ..sched import ScheduleStore
from .partition import partition_catalog
from .router import ClusterRouter

__all__ = ["ShardPlan", "RefitRound", "RefitReport", "StationCluster"]


@dataclass
class ShardPlan:
    """One shard's catalog slice, plan, and measured cost."""

    shard: int
    keys: list[str]
    weights: list[float]
    result: PlanResult
    program: BroadcastProgram
    #: Sum of the shard's access weights — its share of the request
    #: stream, since requests are drawn proportionally to weight.
    load: float
    #: Measured mean access time (slots) of the latest sample replay;
    #: ``None`` until :meth:`StationCluster.measure` runs.
    cost: float | None = None

    @property
    def cycle_length(self) -> int:
        return self.program.cycle_length

    def to_row(self) -> dict:
        return {
            "shard": self.shard,
            "keys": len(self.keys),
            "load": self.load,
            "cycle_length": self.cycle_length,
            "planner_cost": self.result.cost,
            "measured_cost": self.cost,
        }


@dataclass(frozen=True)
class RefitRound:
    """One accepted (or rejected) hot-key re-route."""

    moved: tuple[str, ...]
    from_shard: int
    to_shard: int
    before: float
    after: float
    accepted: bool


@dataclass
class RefitReport:
    """What :meth:`StationCluster.refit` did, round by round."""

    initial: float
    final: float
    rounds: list[RefitRound] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return self.final < self.initial

    def to_dict(self) -> dict:
        return {
            "initial": self.initial,
            "final": self.final,
            "improved": self.improved,
            "rounds": [
                {
                    "moved": list(r.moved),
                    "from_shard": r.from_shard,
                    "to_shard": r.to_shard,
                    "before": r.before,
                    "after": r.after,
                    "accepted": r.accepted,
                }
                for r in self.rounds
            ],
        }


class StationCluster:
    """N broadcast shards, a routing directory, and a measuring refit loop.

    Parameters
    ----------
    catalog:
        The full (key, weight) catalog, keys unique. Needs at least one
        key per shard.
    shards:
        Number of station shards.
    partitioner:
        :mod:`repro.cluster.partition` registry name seeding the split.
    planner:
        :mod:`repro.planners` registry name used for **every** shard's
        allocation — per-shard plan selection goes through the same
        facade the single-station stack uses. Defaults to the
        :mod:`repro.approx` meta-planner, which sizes up each shard's
        slice and picks a method per shard. Every registered planner
        builds one alphabetic index tree, so station wire walks can
        route any shard's plan by key.
    channels, fanout, bucket_size:
        Per-shard program shape: each shard airs its own ``channels``
        broadcast channels (an N-shard cluster is N× the air bandwidth).
    seed:
        Seeds the refit loop's measurement samples; the whole
        partition/plan/refit pipeline is a pure function of
        (catalog, seed).
    sample_requests:
        Total request sample size per measurement pass, split across
        shards proportionally to load (each shard gets at least 16).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        given, every measurement pass feeds shard-labelled walk
        summaries (``repro_walk_access_time_slots{shard="2"}`` …) and a
        per-shard measured-cost gauge, so an operator can watch the
        refit converge on ``/metrics``.
    store_dir:
        Optional directory of per-shard
        :class:`~repro.sched.ScheduleStore` roots (``shard-00`` …).
        When given, every shard (re)plan — the initial planning pass,
        each refit move and each revert — is published as a store
        version, so a shard's plan history is durable, diffable and
        rollbackable exactly like the single-station store; a revert
        republishes the identical document, which content addressing
        dedups to a log entry. Shards with a live station registered in
        :attr:`stations` additionally have the new version put on air
        at the next cycle boundary.
    tracer:
        Optional :class:`~repro.obs.events.Tracer`. When it is a
        span-capable :class:`~repro.obs.spans.SpanTracer`, every
        :meth:`plan_shards` pass becomes a ``cluster.refit`` root span
        with one ``shard.replan`` child per planned shard (slots here
        are plan *epochs* — the cluster has no air clock of its own),
        the per-shard store publishes nest under those children, and a
        live station cutover carries the child's context on the air.
    """

    def __init__(
        self,
        catalog: Sequence[tuple[str, float]] | Mapping[str, float],
        shards: int,
        *,
        partitioner: str = "hash",
        planner: str = "meta",
        channels: int = 3,
        fanout: int = 3,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        seed: int = 2000,
        sample_requests: int = 256,
        metrics: MetricsRegistry | None = None,
        perf: PerfRecorder | None = None,
        store_dir: str | Path | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if isinstance(catalog, Mapping):
            catalog = list(catalog.items())
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if len(catalog) < shards:
            raise ValueError(
                f"catalog of {len(catalog)} keys cannot fill {shards} shards"
            )
        if sample_requests < 1:
            raise ValueError("sample_requests must be >= 1")
        self.catalog: dict[str, float] = dict(catalog)
        if len(self.catalog) != len(catalog):
            raise ValueError("catalog keys must be unique")
        self.shards = shards
        self.partitioner = partitioner
        self.planner = planner
        self.channels = channels
        self.fanout = fanout
        self.bucket_size = bucket_size
        self.seed = seed
        self.sample_requests = sample_requests
        self.metrics = metrics
        self.perf = perf if perf is not None else PerfRecorder()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._spans = (
            span_tracer_of(self.tracer) if self.tracer.enabled else None
        )
        # The cluster's logical clock: one "slot" per shard.replan, so a
        # plan_shards pass over N shards is a root span of exactly N
        # slots tiled by its children.
        self._span_clock = 0

        #: shard id → live :class:`~repro.net.station.BroadcastStation`;
        #: populated by the serving harness. A registered station is
        #: cut over (``station.publish``) whenever its shard replans.
        self.stations: dict[int, object] = {}
        self.stores: dict[int, ScheduleStore] = {}
        if store_dir is not None:
            root = Path(store_dir)
            self.stores = {
                shard: ScheduleStore(
                    root / f"shard-{shard:02d}",
                    perf=self.perf,
                    tracer=self.tracer,
                )
                for shard in range(shards)
            }

        assignment = partition_catalog(catalog, shards, method=partitioner)
        self.router = ClusterRouter(assignment, shards)
        self._repair_empty_shards()
        self.plans: dict[int, ShardPlan] = {}
        self.plan_shards(note="initial plan")
        #: shard id → (host, port) of its live station; populated by the
        #: serving/loadtest harness while stations are up.
        self.endpoints: dict[int, tuple[str, int]] = {}

    def endpoint_of(self, key: str) -> tuple[str, int]:
        """(host, port) of the live station airing ``key``.

        The tuner-assignment answer of the live cluster: route the key
        through the directory, look the shard's endpoint up. Raises
        :class:`~repro.cluster.router.UnknownKeyError` for foreign keys
        and ``ValueError`` while the shard's station is not up.
        """
        shard = self.router.shard_of(key)
        try:
            return self.endpoints[shard]
        except KeyError:
            raise ValueError(
                f"shard {shard} has no live station endpoint"
            ) from None

    # -- partitioning repair -------------------------------------------------
    def _repair_empty_shards(self) -> None:
        """Deterministically fill shards a partitioner left empty.

        A station cannot air an empty catalog, so while any shard owns
        no keys, the lightest key of the currently largest shard moves
        there — lowest-id empty shard first, ties broken by key, so the
        repair is a pure function of the assignment.
        """
        while True:
            counts = self.router.counts()
            try:
                empty = counts.index(0)
            except ValueError:
                return
            donor = max(
                range(self.shards),
                key=lambda s: (counts[s], -s),
            )
            keys = self.router.keys_of(donor)
            lightest = min(keys, key=lambda k: (self.catalog[k], k))
            self.router.move([lightest], empty)

    # -- planning ------------------------------------------------------------
    def shard_items(self, shard: int) -> list[tuple[str, float]]:
        """The (key, weight) slice shard ``shard`` owns, in key order."""
        return [
            (key, self.catalog[key]) for key in self.router.keys_of(shard)
        ]

    def plan_shards(
        self,
        shard_ids: Sequence[int] | None = None,
        *,
        note: str = "replan",
    ) -> None:
        """(Re)plan the named shards — all of them when ``None``.

        Each slice goes through :func:`repro.planners.plan_catalog`
        with the cluster's planner; untouched shards keep their plans
        *and* their routing entries (the router is an explicit
        directory — see :mod:`repro.cluster.router`). With per-shard
        stores attached, each planned shard publishes a store version
        (annotated ``note``), and a shard with a live registered
        station is cut over at its next cycle boundary.
        """
        targets = list(
            range(self.shards) if shard_ids is None else shard_ids
        )
        refit_span = None
        if self._spans is not None and targets:
            start = self._span_clock
            refit_span = self._spans.begin(
                "cluster.refit",
                start,
                component="cluster",
                attrs=(("shards", len(targets)), ("note", note)),
            )
        for offset, shard in enumerate(targets):
            items = self.shard_items(shard)
            if not items:
                raise ValueError(f"shard {shard} has no keys to plan")
            labels = [key for key, _ in items]
            weights = [weight for _, weight in items]
            result = plan_catalog(
                labels,
                weights,
                self.channels,
                method=self.planner,
                fanout=self.fanout,
                perf=self.perf,
            )
            self.plans[shard] = ShardPlan(
                shard=shard,
                keys=labels,
                weights=weights,
                result=result,
                program=result.compile(),
                load=float(sum(weights)),
            )
            self.perf.count("cluster.shard_plans")
            shard_span = None
            if refit_span is not None:
                epoch = self._span_clock + offset
                shard_span = refit_span.child(
                    "shard.replan",
                    epoch,
                    component="cluster",
                    attrs=(("shard", shard),),
                )
            store = self.stores.get(shard)
            if store is not None:
                record = store.publish(
                    result,
                    note=note,
                    trace=(
                        shard_span.context if shard_span is not None else None
                    ),
                    slot=self._span_clock + offset,
                )
                station = self.stations.get(shard)
                if station is not None:
                    station.publish(
                        self.plans[shard].program,
                        version=record.version,
                        trace=(
                            shard_span.context
                            if shard_span is not None
                            else None
                        ),
                    )
            if shard_span is not None:
                shard_span.end(self._span_clock + offset)
        if refit_span is not None:
            refit_span.end(self._span_clock + len(targets) - 1)
        if self._spans is not None:
            self._span_clock += len(targets)

    # -- measurement ---------------------------------------------------------
    def _sample_sizes(self) -> list[int]:
        total_load = sum(p.load for p in self.plans.values()) or 1.0
        return [
            max(16, ceil(self.sample_requests * p.load / total_load))
            for p in (self.plans[s] for s in range(self.shards))
        ]

    def measure(self) -> dict[int, float]:
        """Measure every shard's mean access time from a seeded sample.

        For each shard a weight-proportional request sample replays
        through the frame-level simulator
        (:func:`repro.io.wire_client.wire_walk` — the same walk
        the live tuners run), narrated into an
        :class:`~repro.obs.attrib.AttributionCollector`; the shard's
        cost is the collector's mean access time. With a registry
        attached, the walks also feed shard-labelled summaries and the
        ``repro_cluster_shard_cost_slots`` gauge. Seeded by
        ``(seed, shard)``: two measurements of the same shard state are
        identical, which is what makes :meth:`refit` deterministic.
        """
        costs: dict[int, float] = {}
        sizes = self._sample_sizes()
        for shard in range(self.shards):
            plan = self.plans[shard]
            cost = self._measure_shard(plan, sizes[shard])
            plan.cost = cost
            costs[shard] = cost
            if self.metrics is not None:
                self.metrics.gauge(
                    "repro_cluster_shard_cost_slots",
                    "measured mean access time of one shard's sample "
                    "replay (slots)",
                    labels={"shard": str(shard)},
                ).set(cost)
            self.perf.count("cluster.measurements")
        return costs

    def _measure_shard(self, plan: ShardPlan, requests: int) -> float:
        rng = np.random.default_rng([self.seed, 0xC1, plan.shard])
        weights = np.asarray(plan.weights, dtype=float)
        probabilities = (
            weights / weights.sum()
            if weights.sum() > 0
            else np.full(len(weights), 1.0 / len(weights))
        )
        key_draws = rng.choice(len(plan.keys), size=requests, p=probabilities)
        slot_draws = rng.integers(
            1, plan.program.cycle_length + 1, size=requests
        )
        collector = AttributionCollector(
            self.metrics,
            labels=(
                {"shard": str(plan.shard)} if self.metrics is not None
                else None
            ),
        )
        frames = encode_program(plan.program, self.bucket_size)
        for index, (draw, slot) in enumerate(zip(key_draws, slot_draws)):
            wire_walk(
                frames,
                plan.keys[int(draw)],
                int(slot),
                tracer=collector,
                walk_id=index,
            )
        walks = [walk for walk in collector.walks if not walk.abandoned]
        if not walks:
            return 0.0
        return sum(walk.access_time for walk in walks) / len(walks)

    def aggregate_cost(self) -> float:
        """Load-weighted mean access time across shards (slots).

        The cluster-level objective the refit loop minimises: each
        shard's measured cost weighted by its share of the request
        stream. Requires :meth:`measure` to have run.
        """
        total_load = sum(p.load for p in self.plans.values())
        if total_load == 0:
            return 0.0
        missing = [s for s, p in self.plans.items() if p.cost is None]
        if missing:
            raise ValueError(
                f"shards {missing} are unmeasured; call measure() first"
            )
        return (
            sum(p.load * p.cost for p in self.plans.values()) / total_load
        )

    # -- the refit loop ------------------------------------------------------
    def refit(
        self,
        *,
        max_rounds: int = 4,
        move_fraction: float = 0.25,
        min_gain: float = 1e-9,
    ) -> RefitReport:
        """Iteratively re-route hot keys until aggregate cost stops improving.

        Each round: measure every shard → pick the costliest shard →
        move its hottest ``move_fraction`` of keys (at least one,
        always leaving one behind) to the cheapest shard → replan *only*
        the two touched shards → re-measure them. A round that fails to
        improve the load-weighted aggregate by more than ``min_gain``
        is reverted — keys move back, the two shards replan to their
        previous schedules — and the loop stops. Everything is seeded,
        so the same cluster refits identically every time.
        """
        report_metrics = self.metrics
        self.measure()
        best = self.aggregate_cost()
        report = RefitReport(initial=best, final=best)
        if self.shards < 2:
            return report
        for _ in range(max_rounds):
            by_cost = sorted(
                range(self.shards),
                key=lambda s: (self.plans[s].cost, s),
            )
            source, target = by_cost[-1], by_cost[0]
            if source == target:
                break
            movable = self.shard_items(source)
            if len(movable) < 2:
                break
            count = max(1, ceil(len(movable) * move_fraction))
            count = min(count, len(movable) - 1)
            hottest = [
                key
                for key, _ in sorted(
                    movable, key=lambda kw: (-kw[1], kw[0])
                )[:count]
            ]
            before = best
            self.router.move(hottest, target)
            self.plan_shards([source, target], note="refit move")
            self.measure()
            after = self.aggregate_cost()
            accepted = after < before - min_gain
            report.rounds.append(
                RefitRound(
                    moved=tuple(hottest),
                    from_shard=source,
                    to_shard=target,
                    before=before,
                    after=after,
                    accepted=accepted,
                )
            )
            self.perf.count("cluster.refit_rounds")
            if not accepted:
                # Revert: the directory moves back and both shards
                # replan from the restored slices — bit-identical to
                # the pre-round state because planning is deterministic.
                self.router.move(hottest, source)
                self.plan_shards([source, target], note="refit revert")
                self.measure()
                best = self.aggregate_cost()
                break
            best = after
            self.perf.count("cluster.refit_accepted")
        report.final = best
        if report_metrics is not None:
            report_metrics.gauge(
                "repro_cluster_aggregate_cost_slots",
                "load-weighted mean access time across shards (slots)",
            ).set(best)
        return report

    # -- introspection -------------------------------------------------------
    def shard_rows(self) -> list[dict]:
        """Per-shard summary rows (the ``cluster plan`` table)."""
        return [self.plans[shard].to_row() for shard in range(self.shards)]

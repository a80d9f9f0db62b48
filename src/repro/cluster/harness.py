"""Multi-station fleet harness: one loadtest across every cluster shard.

The single-station harness (:mod:`repro.net.harness`) answers "how fast
is one station"; this module answers the cluster question — N stations
airing N workload partitions concurrently. :func:`serve_cluster` puts
one station per shard on air, and one
:func:`~repro.net.harness.drive_fleet` fleet routes its requests to
them through the cluster directory. Accounting is **per shard**: every
shard keeps its own :class:`~repro.perf.PerfRecorder`, and its slice
of the walks is summarised on its own, so ``unaccounted_frames == 0``
is gated shard by shard, not hidden in an aggregate. The same goes for
parity: each shard's slice of the walks is replayed through the
in-process simulator and must match bit for bit.

Why sharding scales walks/sec: every shard airs only its slice of the
catalog, so its cycle is ~``1/N`` of the monolithic cycle, and a paced
walk (``slot_duration > 0`` — real air time) finishes in ~``1/N`` of
the wall-clock. ``run_cluster_sweep`` measures exactly that curve
(aggregate walks/sec at 1, 2, 4 shards), and :func:`run_cluster_bench`
is the ``cluster-loadtest`` suite of :mod:`repro.bench` that gates it.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from ..net.harness import (
    arrival_offsets,
    demo_labels,
    drive_fleet,
    summarise_walks,
)
from ..obs.attrib import AttributionCollector
from ..obs.metrics import MetricsRegistry
from ..perf import PerfRecorder
from ..workloads.weights import zipf_weights
from .core import StationCluster

__all__ = [
    "ClusterLoadReport",
    "make_cluster_trace",
    "serve_cluster",
    "run_cluster_loadtest",
    "run_cluster_sweep",
    "run_cluster_bench",
    "demo_catalog",
    "sweep_summary",
]


@asynccontextmanager
async def serve_cluster(
    cluster: StationCluster,
    *,
    host: str = "127.0.0.1",
    slot_duration: float = 0.0,
):
    """Air every shard's program on its own live station.

    One :class:`~repro.net.station.BroadcastStation` per shard, each
    with its own :class:`~repro.perf.PerfRecorder` (the shard's
    recorders live in the yielded dict). While the stations are up,
    :attr:`StationCluster.endpoints` maps each shard to its (host,
    port), so :meth:`StationCluster.endpoint_of` answers the tuner
    assignment question; both are torn down again on exit.
    """
    from ..net.station import BroadcastStation

    recorders = {shard: PerfRecorder() for shard in range(cluster.shards)}
    stations = {
        shard: BroadcastStation(
            cluster.plans[shard].program,
            host=host,
            slot_duration=slot_duration,
            perf=recorders[shard],
        )
        for shard in range(cluster.shards)
    }
    started: list[int] = []
    try:
        for shard, station in stations.items():
            await station.start()
            started.append(shard)
            cluster.endpoints[shard] = (station.host, station.port)
        yield stations, recorders
    finally:
        cluster.endpoints.clear()
        for shard in started:
            await stations[shard].aclose()


def make_cluster_trace(
    cluster: StationCluster,
    requests: int,
    rng: np.random.Generator,
) -> list[tuple[int, str, int]]:
    """Draw ``requests`` (shard, key, tune_slot) triples for the fleet.

    Keys are drawn over the **whole** catalog proportionally to access
    weight — the workload does not know about shards — then routed
    through the cluster directory; each request's tune-in slot is
    uniform over *its own shard's* cycle. One rng drives the global
    draw, so the same seed yields the same workload regardless of the
    shard count — which is what makes a 1-vs-4-shard sweep compare the
    same traffic.
    """
    keys = sorted(cluster.catalog)
    weights = np.array([cluster.catalog[key] for key in keys], dtype=float)
    if weights.sum() == 0:
        probabilities = np.full(len(keys), 1.0 / len(keys))
    else:
        probabilities = weights / weights.sum()
    key_draws = rng.choice(len(keys), size=requests, p=probabilities)
    trace: list[tuple[int, str, int]] = []
    for draw in key_draws:
        key = keys[int(draw)]
        shard = cluster.router.shard_of(key)
        cycle = cluster.plans[shard].program.cycle_length
        slot = int(rng.integers(1, cycle + 1))
        trace.append((shard, key, slot))
    return trace


@dataclass
class ClusterLoadReport:
    """Everything one cluster loadtest measured, shard by shard."""

    shards: int
    tuners: int
    wall_seconds: float
    #: Total completed+abandoned walks over the one fleet's wall clock —
    #: the scaling deliverable. Every shard report shares that wall, so
    #: the per-shard rates sum to this one.
    aggregate_walks_per_second: float
    #: Request-weighted mean access time across shards (slots).
    mean_access_time: float
    completed: int
    abandoned: int
    #: shard id (as str, JSON-stable) → that shard's full LoadReport dict.
    per_shard: dict = field(default_factory=dict)

    @property
    def accounting_ok(self) -> bool:
        """True iff every shard balanced its frames exactly."""
        return all(
            report["checks"]["zero_unaccounted_frames"]
            for report in self.per_shard.values()
        )

    @property
    def parity_ok(self) -> bool:
        """True iff every shard's parity gate passed (or none ran)."""
        return all(
            report["checks"]["parity_exact"]
            for report in self.per_shard.values()
        )

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "tuners": self.tuners,
            "wall_seconds": self.wall_seconds,
            "aggregate_walks_per_second": self.aggregate_walks_per_second,
            "mean_access_time": self.mean_access_time,
            "completed": self.completed,
            "abandoned": self.abandoned,
            "per_shard": self.per_shard,
            "checks": {
                "zero_unaccounted_frames": self.accounting_ok,
                "parity_exact": self.parity_ok,
            },
        }


async def run_cluster_loadtest(
    cluster: StationCluster,
    *,
    tuners: int = 1000,
    rng: np.random.Generator | None = None,
    slot_duration: float = 0.0,
    arrival_rate: float = 0.0,
    max_open: int = 256,
    check_parity: bool = False,
    metrics: MetricsRegistry | None = None,
) -> ClusterLoadReport:
    """Air every shard concurrently and drive one routed tuner fleet.

    :func:`serve_cluster` airs the shards, and one
    :func:`~repro.net.harness.drive_fleet` runs the global trace, each
    request routed to its shard's endpoint through the cluster
    directory, under one ``max_open`` gate. Each shard's tuners count
    into that shard's PerfRecorder, and each shard's slice of the walks
    is summarised on its own, so frame accounting and parity are
    per-shard gates. Every shard report carries the shared fleet wall
    clock. With a registry attached, each shard's walks feed
    ``{shard="<id>"}``-labelled attribution summaries and its perf
    counters absorb under the same label — the per-shard rows an
    operator reaches for when one shard of four goes slow.
    """
    if rng is None:
        rng = np.random.default_rng(cluster.seed)
    trace = make_cluster_trace(cluster, tuners, rng)
    offsets = arrival_offsets(rng, len(trace), arrival_rate)
    shards = range(cluster.shards)
    tracers = [
        AttributionCollector(metrics, labels={"shard": str(shard)})
        if metrics is not None
        else None
        for shard in shards
    ]

    started = perf_counter()
    async with serve_cluster(cluster, slot_duration=slot_duration) as (
        _,
        recorders,
    ):
        walks = await drive_fleet(
            trace,
            [cluster.endpoints[shard] for shard in shards],
            offsets,
            max_open=max_open,
            perf=[recorders[shard] for shard in shards],
            tracers=tracers,
        )
    wall = perf_counter() - started

    reports = [
        summarise_walks(
            cluster.plans[shard].program,
            [walk for (at, _, _), walk in zip(trace, walks) if at == shard],
            perf=recorders[shard],
            wall_seconds=wall,
            check_parity=check_parity,
        )
        for shard in shards
    ]
    if metrics is not None:
        for shard in shards:
            metrics.absorb_perf(
                recorders[shard], labels={"shard": str(shard)}
            )

    completed = sum(report.completed for report in reports)
    abandoned = sum(report.abandoned for report in reports)
    weighted_access = sum(
        report.mean_access_time * report.completed for report in reports
    )
    return ClusterLoadReport(
        shards=cluster.shards,
        tuners=len(trace),
        wall_seconds=wall,
        aggregate_walks_per_second=(
            (completed + abandoned) / wall if wall > 0 else 0.0
        ),
        mean_access_time=(
            weighted_access / completed if completed else 0.0
        ),
        completed=completed,
        abandoned=abandoned,
        per_shard={
            str(shard): report.to_dict()
            for shard, report in enumerate(reports)
        },
    )


def run_cluster_sweep(
    catalog,
    shard_counts: list[int],
    *,
    tuners: int = 200,
    partitioner: str = "hash",
    planner: str = "meta",
    channels: int = 3,
    fanout: int = 3,
    seed: int = 2000,
    refit_rounds: int = 0,
    slot_duration: float = 0.0,
    arrival_rate: float = 0.0,
    max_open: int = 256,
    check_parity: bool = False,
    metrics: MetricsRegistry | None = None,
) -> dict[int, ClusterLoadReport]:
    """Loadtest the same catalog and workload at several shard counts.

    The scaling experiment behind ``cluster loadtest --sweep`` and the
    ``cluster-loadtest`` bench suite: every shard count sees the
    identical catalog, seed, fleet size and pacing, so the aggregate
    walks/sec curve isolates the effect of sharding alone.
    ``refit_rounds > 0`` runs the measuring refit loop before each
    loadtest.
    """
    results: dict[int, ClusterLoadReport] = {}
    for count in shard_counts:
        cluster = StationCluster(
            catalog,
            count,
            partitioner=partitioner,
            planner=planner,
            channels=channels,
            fanout=fanout,
            seed=seed,
            metrics=metrics,
        )
        if refit_rounds > 0:
            cluster.refit(max_rounds=refit_rounds)
        results[count] = asyncio.run(
            run_cluster_loadtest(
                cluster,
                tuners=tuners,
                rng=np.random.default_rng(seed),
                slot_duration=slot_duration,
                arrival_rate=arrival_rate,
                max_open=max_open,
                check_parity=check_parity,
                metrics=metrics,
            )
        )
    return results


def demo_catalog(items: int, seed: int) -> list[tuple[str, float]]:
    """The Zipf-weighted demo catalog every cluster command airs.

    Same shape as :func:`repro.net.harness.build_demo_program`'s input,
    so a 1-shard cluster airs the catalog the single-station commands do.
    """
    rng = np.random.default_rng(seed)
    weights = zipf_weights(rng, items)
    return list(zip(demo_labels(items), (float(w) for w in weights)))


def sweep_summary(
    results: dict[int, ClusterLoadReport],
) -> tuple[dict[str, float], dict[str, bool]]:
    """A sweep's speedups and checks.

    Speedups are aggregate walks/sec relative to the 1-shard run, keyed
    by shard count (none when the sweep has no 1-shard point).
    ``scaling_2shard`` asserts a ≥1.7× speedup whenever both the 1- and
    2-shard points were measured.
    """
    base = results.get(1)
    speedups: dict[str, float] = {}
    if base is not None and base.aggregate_walks_per_second > 0:
        for count, report in sorted(results.items()):
            if count != 1:
                speedups[str(count)] = (
                    report.aggregate_walks_per_second
                    / base.aggregate_walks_per_second
                )
    checks = {
        "zero_unaccounted_frames": all(
            report.accounting_ok for report in results.values()
        ),
        "parity_exact": all(
            report.parity_ok for report in results.values()
        ),
    }
    if "2" in speedups:
        checks["scaling_2shard"] = speedups["2"] >= 1.7
    return speedups, checks


def run_cluster_bench(
    *,
    items: int = 32,
    channels: int = 3,
    fanout: int = 3,
    planner: str = "meta",
    partitioner: str = "hash",
    shard_counts: Sequence[int] = (1, 2, 4),
    tuners: int = 100,
    refit_rounds: int = 0,
    arrival_rate: float = 0.0,
    max_open: int = 256,
    slot_duration: float = 0.02,
    check_parity: bool = True,
    seed: int = 2000,
) -> dict:
    """The ``cluster-loadtest`` bench suite: one paced shard-count sweep.

    Per shard count, the mean access time (seed-deterministic) and, for
    the 1-shard run, the aggregate walks/sec; the speedups of the other
    counts over it. The walks/sec come from each loadtest's own wall
    clock: with paced air (``slot_duration > 0``) they measure air time,
    not CPU.
    """
    results = run_cluster_sweep(
        demo_catalog(items, seed),
        list(shard_counts),
        tuners=tuners,
        partitioner=partitioner,
        planner=planner,
        channels=channels,
        fanout=fanout,
        seed=seed,
        refit_rounds=refit_rounds,
        slot_duration=slot_duration,
        arrival_rate=arrival_rate,
        max_open=max_open,
        check_parity=check_parity,
    )
    speedups, checks = sweep_summary(results)

    def shards(count) -> str:
        return "1shard" if int(count) == 1 else f"{count}shards"

    metrics = {
        f"mean_access_time_{shards(count)}": report.mean_access_time
        for count, report in sorted(results.items())
    }
    if 1 in results:
        metrics["walks_per_second_1shard"] = (
            results[1].aggregate_walks_per_second
        )
    for count, speedup in speedups.items():
        metrics[f"speedup_{shards(count)}"] = speedup
    return {
        "metrics": metrics,
        "checks": checks,
        "detail": {
            str(count): report.to_dict()
            for count, report in sorted(results.items())
        },
    }

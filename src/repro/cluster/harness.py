"""Multi-station fleet harness: one loadtest across every cluster shard.

The single-station harness (:mod:`repro.net.harness`) answers "how fast
is one station"; this module answers the cluster question — N stations
airing N workload partitions concurrently, one tuner fleet whose
requests route through the cluster directory, and **per-shard
accounting**: every shard keeps its own
:class:`~repro.perf.PerfRecorder`, so ``unaccounted_frames == 0`` is
gated shard by shard, not hidden in an aggregate. The same goes for
parity: each shard's fleet replays its slice of the trace through the
in-process simulator and demands bit-equality.

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

from ..client.protocol import RecoveryPolicy
from ..faults import FaultConfig
from ..io.wire import DEFAULT_BUCKET_SIZE
from ..net.harness import demo_labels
from ..obs.attrib import AttributionCollector
from ..obs.events import TeeTracer, Tracer
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
    bucket_size: int = DEFAULT_BUCKET_SIZE,
    faults: FaultConfig | None = None,
    tracer: Tracer | None = None,
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
            bucket_size=bucket_size,
            faults=faults,
            slot_duration=slot_duration,
            perf=recorders[shard],
            tracer=tracer,
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
    #: Total completed+abandoned walks over the *cluster* wall clock —
    #: the scaling deliverable. (Not the sum of per-shard rates: shards
    #: run concurrently, so the cluster wall is the slowest shard's.)
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
    trace: list[tuple[int, str, int]] | None = None,
    faults: FaultConfig | None = None,
    policy: RecoveryPolicy | None = None,
    slot_duration: float = 0.0,
    arrival_rate: float = 0.0,
    max_open: int = 256,
    bucket_size: int = DEFAULT_BUCKET_SIZE,
    check_parity: bool = False,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    flight_recorder=None,
) -> ClusterLoadReport:
    """Air every shard concurrently and drive one routed tuner fleet.

    The global trace routes each request to its shard through the
    cluster directory; each shard then runs the standard
    :func:`repro.net.harness.run_loadtest` **with its own
    PerfRecorder**, so frame accounting and parity are per-shard gates.
    ``max_open`` is split across shards (each gets at least 8 sockets).
    With a registry attached, each shard's walks feed
    ``{shard="<id>"}``-labelled attribution summaries and its perf
    counters absorb under the same label — the per-shard rows an
    operator reaches for when one shard of four goes slow.

    ``flight_recorder`` (a :class:`~repro.obs.recorder.FlightRecorder`) tees
    each shard's events into an always-on ``shard-<id>`` ring and dumps
    a postmortem bundle the moment any shard fails its accounting or
    parity gate — the failing shard's last events, correlated, without
    anyone having asked for tracing up front.
    """
    from ..net.harness import LoadReport, run_loadtest

    if rng is None:
        rng = np.random.default_rng(cluster.seed)
    if trace is None:
        trace = make_cluster_trace(cluster, tuners, rng)
    tuners = len(trace)

    per_shard_trace: dict[int, list[tuple[str, int]]] = {
        shard: [] for shard in range(cluster.shards)
    }
    for shard, key, slot in trace:
        per_shard_trace[shard].append((key, slot))

    shard_open = max(8, max_open // max(1, cluster.shards))
    recorders = {
        shard: PerfRecorder() for shard in range(cluster.shards)
    }
    # Independent child generators per shard: each shard's Poisson
    # arrival offsets must not depend on how many requests the *other*
    # shards drew.
    shard_rngs = {
        shard: np.random.default_rng(
            [int(rng.integers(2**63)), shard]
        )
        for shard in range(cluster.shards)
    }
    shard_tracers: dict[int, Tracer | None] = {}
    for shard in range(cluster.shards):
        shard_tracer = tracer
        if metrics is not None:
            collector = AttributionCollector(
                metrics, labels={"shard": str(shard)}
            )
            shard_tracer = (
                collector
                if shard_tracer is None
                else TeeTracer(shard_tracer, collector)
            )
        if flight_recorder is not None:
            ring = flight_recorder.ring(f"shard-{shard}")
            shard_tracer = (
                ring
                if shard_tracer is None
                else TeeTracer(shard_tracer, ring)
            )
        shard_tracers[shard] = shard_tracer

    async def one_shard(shard: int) -> LoadReport:
        return await run_loadtest(
            cluster.plans[shard].program,
            rng=shard_rngs[shard],
            trace=per_shard_trace[shard],
            faults=faults,
            policy=policy,
            slot_duration=slot_duration,
            arrival_rate=arrival_rate,
            max_open=shard_open,
            bucket_size=bucket_size,
            check_parity=check_parity,
            perf=recorders[shard],
            tracer=shard_tracers[shard],
        )

    started = perf_counter()
    reports = await asyncio.gather(
        *(one_shard(shard) for shard in range(cluster.shards))
    )
    wall = perf_counter() - started

    if metrics is not None:
        for shard, recorder in recorders.items():
            metrics.absorb_perf(recorder, labels={"shard": str(shard)})

    if flight_recorder is not None:
        for shard, report in enumerate(reports):
            checks = report.to_dict()["checks"]
            if not checks["zero_unaccounted_frames"]:
                flight_recorder.trigger(
                    "unaccounted_frames",
                    detail=f"shard {shard} lost frame accounting",
                    tracer=tracer,
                )
            if not checks["parity_exact"]:
                flight_recorder.trigger(
                    "parity_failure",
                    detail=f"shard {shard} diverged from the simulator",
                    tracer=tracer,
                )

    completed = sum(report.completed for report in reports)
    abandoned = sum(report.abandoned for report in reports)
    walks = completed + abandoned
    weighted_access = sum(
        report.mean_access_time * report.completed for report in reports
    )
    return ClusterLoadReport(
        shards=cluster.shards,
        tuners=tuners,
        wall_seconds=wall,
        aggregate_walks_per_second=walks / wall if wall > 0 else 0.0,
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

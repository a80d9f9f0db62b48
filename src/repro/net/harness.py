"""Load harness: thousands of concurrent tuners against a loopback station.

The ROADMAP's north star is "heavy traffic from millions of users, as
fast as the hardware allows"; this module is the measuring stick. It
spawns a :class:`~repro.net.station.BroadcastStation` on loopback, then
a fleet of tuner coroutines with Poisson arrivals — each one connection,
one full pointer walk — and reports throughput, access- and tuning-time
distributions, loss/retry/abandon counters and a frame-accounting
balance (every envelope the station sent must have been consumed by
exactly one walk read; anything else is a transport bug).

:func:`drive_fleet` is the one tuner fleet of the repository: this
module's :func:`run_loadtest`, the sharded cluster's loadtest
(:mod:`repro.cluster.harness`) and the live-cutover loadtest
(:mod:`repro.sched.harness`) all drive their walks through it, and all
report a station's walks through :func:`summarise_walks`.

The **parity gate** is the harness's correctness anchor: on a zero-loss
station the socket fleet replays the *identical* request trace through
the in-process simulator (:func:`repro.client.protocol.object_walk`)
and demands bit-equality of every access time and tuning time — the
network layer may add wall-clock latency, never slot-denominated error.
``python -m repro.cli loadtest --check-parity`` exits non-zero if the
gate fails; :func:`run_loadtest_bench` is the ``net-loadtest`` suite of
:mod:`repro.bench`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, fields
from math import ceil
from time import perf_counter
from typing import Sequence

import numpy as np

from ..broadcast.pointers import BroadcastProgram
from ..client.protocol import RecoveryPolicy, object_walk
from ..client.walk import WalkResult
from ..faults import FaultConfig
from ..io.wire import DEFAULT_BUCKET_SIZE, encode_program
from ..io.wire_client import wire_walk
from ..obs.attrib import AttributionCollector
from ..obs.events import TeeTracer, Tracer
from ..obs.metrics import MetricsRegistry, slot_buckets
from ..perf import PerfRecorder, measure
from ..planners import plan_catalog
from ..workloads.weights import zipf_weights
from .station import BroadcastStation
from .tuner import TunerClient

__all__ = [
    "LoadReport",
    "demo_labels",
    "build_demo_plan",
    "build_demo_program",
    "make_request_trace",
    "simulator_baseline",
    "trace_simulator",
    "drive_fleet",
    "summarise_walks",
    "run_loadtest",
    "run_loadtest_bench",
]


def demo_labels(items: int) -> list[str]:
    """The demo catalog's keys ``K000``, ``K001``, …, in sorted order.

    Zero-padded to at least three digits and to as many as the largest
    index needs, so string order stays key order past 1,000 items.
    """
    width = max(3, len(str(items - 1)))
    return [f"K{index:0{width}d}" for index in range(items)]


def build_demo_plan(
    *,
    items: int = 24,
    channels: int = 3,
    fanout: int = 3,
    planner: str = "sorting",
    theta: float = 0.95,
    seed: int = 2000,
):
    """The full :class:`~repro.planners.PlanResult` behind the demo program.

    The result — not just its compiled program — is what a
    :class:`~repro.sched.ScheduleStore` publishes (the plan document
    carries cost/method/stats alongside the schedule), so the sched
    harness and CLI build plans through this and compile on demand.
    """
    rng = np.random.default_rng(seed)
    weights = zipf_weights(rng, items, theta=theta)
    return plan_catalog(
        demo_labels(items), list(weights), channels, method=planner, fanout=fanout
    )


def build_demo_program(
    *,
    items: int = 24,
    channels: int = 3,
    fanout: int = 3,
    planner: str = "sorting",
    theta: float = 0.95,
    seed: int = 2000,
) -> BroadcastProgram:
    """A compiled broadcast program for serving/loadtest demos.

    Zipf-weighted catalog of ``items`` string keys, planned end-to-end
    through :func:`repro.planners.plan_catalog` — the same facade the
    sharded cluster plans each shard through, so a demo program and a
    one-shard cluster are built by the identical path.
    """
    return build_demo_plan(
        items=items,
        channels=channels,
        fanout=fanout,
        planner=planner,
        theta=theta,
        seed=seed,
    ).compile()


def make_request_trace(
    program: BroadcastProgram, requests: int, rng: np.random.Generator
) -> list[tuple[str, int]]:
    """Draw ``requests`` (key, tune_slot) pairs, the workload's trace.

    Targets are drawn proportionally to their access weights and tune-in
    slots uniformly over the cycle — the same model as
    :func:`repro.client.simulator.simulate_workload`, reified as a list
    so the identical trace can be replayed through both the socket
    fleet and the in-process simulator.
    """
    targets = program.schedule.tree.data_nodes()
    weights = np.array([t.weight for t in targets], dtype=float)
    if weights.sum() == 0:
        probabilities = np.full(len(targets), 1.0 / len(targets))
    else:
        probabilities = weights / weights.sum()
    target_draws = rng.choice(len(targets), size=requests, p=probabilities)
    slot_draws = rng.integers(1, program.cycle_length + 1, size=requests)
    return [
        (targets[int(t)].label, int(s))
        for t, s in zip(target_draws, slot_draws)
    ]


def _mean(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def simulator_baseline(
    program: BroadcastProgram, trace: list[tuple[str, int]]
) -> dict:
    """Replay ``trace`` through the in-process object-level walk."""
    leaf_of = {leaf.label: leaf for leaf in program.schedule.tree.data_nodes()}
    records = [
        object_walk(program, leaf_of[key], tune_slot)
        for key, tune_slot in trace
    ]
    access_times = [r.access_time for r in records]
    tuning_times = [r.tuning_time for r in records]
    return {
        "requests": len(records),
        "access_times": access_times,
        "tuning_times": tuning_times,
        "mean_access_time": _mean(access_times),
        "mean_tuning_time": _mean(tuning_times),
    }


def trace_simulator(
    program: BroadcastProgram,
    trace: list[tuple[str, int]],
    *,
    tracer: Tracer | None = None,
    bucket_size: int = DEFAULT_BUCKET_SIZE,
) -> list[WalkResult]:
    """Replay ``trace`` through the frame-level simulator, narrating it.

    Encodes ``program`` once and drives the same
    :class:`~repro.client.walk.PointerWalk` the live tuners use, frame
    by frame, over *lossless* air — emitting the identical
    ``slot_read``/``channel_hop``/``walk_finished`` event vocabulary
    into ``tracer``. This is the reference side of ``repro obs diff``:
    diff a live (possibly lossy) fleet trace against this replay and
    the first divergent (channel, slot) is where the air departed from
    the model.
    """
    frames = encode_program(program, bucket_size)
    return [
        wire_walk(frames, key, tune_slot, tracer=tracer, walk_id=index)
        for index, (key, tune_slot) in enumerate(trace)
    ]


@dataclass
class LoadReport:
    """Everything one loadtest run measured."""

    tuners: int
    completed: int
    abandoned: int
    wall_seconds: float
    walks_per_second: float
    mean_access_time: float
    mean_tuning_time: float
    access_percentiles: dict[str, float]
    tuning_percentiles: dict[str, float]
    mean_channel_switches: float
    lost_buckets: int
    corrupt_buckets: int
    retries: int
    wasted_probes: int
    frames_requested: int
    frames_answered: int
    frames_read: int
    unaccounted_frames: int
    parity: dict | None = None
    perf: dict = field(default_factory=dict)

    @property
    def parity_ok(self) -> bool:
        """True when no parity check ran or the check matched exactly."""
        return self.parity is None or bool(self.parity["exact_match"])

    @property
    def accounting_ok(self) -> bool:
        return self.unaccounted_frames == 0

    def to_dict(self) -> dict:
        record = {item.name: getattr(self, item.name) for item in fields(self)}
        record["checks"] = {
            "zero_unaccounted_frames": self.accounting_ok,
            "parity_exact": self.parity_ok,
        }
        return record


def _percentiles(values: list[int]) -> dict[str, float]:
    """Nearest-rank percentiles, the :mod:`repro.obs.digest` convention.

    ``rank = max(1, ceil(q·n))``, value = the rank-th order statistic —
    an *observed* value, never an interpolation, and bit-identical to
    what :class:`~repro.obs.digest.QuantileDigest` reports for the same
    multiset. The loadtest JSON and a ``/metrics`` scrape therefore can
    never disagree on identical data (they previously could:
    ``np.percentile`` interpolates linearly). Zero completed walks
    yield an explicit all-zero dict — no NaN ever reaches a BENCH
    record.
    """
    if not values:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    ordered = sorted(values)
    count = len(ordered)

    def nearest_rank(q: float) -> float:
        rank = max(1, ceil(q * count))
        return float(ordered[rank - 1])

    return {
        "p50": nearest_rank(0.50),
        "p90": nearest_rank(0.90),
        "p99": nearest_rank(0.99),
        "max": float(ordered[-1]),
    }


def arrival_offsets(
    rng: np.random.Generator, tuners: int, arrival_rate: float
) -> np.ndarray:
    """Poisson arrival offsets in seconds; all zero when the rate is 0."""
    if arrival_rate > 0:
        return np.cumsum(rng.exponential(1.0 / arrival_rate, size=tuners))
    return np.zeros(tuners)


async def drive_fleet(
    trace: Sequence[tuple[int, str, int]],
    endpoints: Sequence[tuple[str, int]],
    offsets: Sequence[float],
    *,
    policy: RecoveryPolicy | None = None,
    max_open: int,
    perf: Sequence[PerfRecorder],
    tracers: Sequence[Tracer | None],
) -> list[WalkResult]:
    """Run one tuner per trace entry; return the walks in trace order.

    Entry ``i`` is ``(endpoint, key, tune_slot)``. After ``offsets[i]``
    seconds its tuner connects to ``endpoints[endpoint]``, walks to
    ``key`` from ``tune_slot`` as walk ``i`` under ``policy``, and
    hangs up. It counts into ``perf[endpoint]`` and narrates into
    ``tracers[endpoint]``, so each station's frames balance against its
    own tuners' reads. The fleet's coroutines all exist at once, but at
    most ``max_open`` connections are open at a time, so a large fleet
    does not hit the fd limit head on. Once every tuner is done, the
    first failed walk's exception is raised.
    """
    gate = asyncio.Semaphore(max_open)
    results: list[WalkResult | None] = [None] * len(trace)
    failures: list[Exception] = []

    async def one_tuner(
        index: int, endpoint: int, key: str, tune_slot: int
    ) -> None:
        if offsets[index]:
            await asyncio.sleep(float(offsets[index]))
        host, port = endpoints[endpoint]
        async with gate:
            try:
                async with TunerClient(
                    host,
                    port,
                    policy=policy,
                    perf=perf[endpoint],
                    tracer=tracers[endpoint],
                ) as tuner:
                    results[index] = await tuner.fetch(
                        key, tune_slot, walk_id=index
                    )
            except Exception as error:  # accounted, not swallowed
                failures.append(error)

    await asyncio.gather(
        *(one_tuner(index, *entry) for index, entry in enumerate(trace))
    )
    if failures:
        raise failures[0]
    return results


def summarise_walks(
    program: BroadcastProgram,
    walks: list[WalkResult],
    *,
    perf: PerfRecorder,
    wall_seconds: float,
    check_parity: bool = False,
) -> LoadReport:
    """One station's walks as a :class:`LoadReport`.

    ``perf`` is the recorder the station airing ``program`` and only
    these walks' tuners counted into, so every frame it sent must be
    one of their reads. ``wall_seconds`` is added to its
    ``net.loadtest.seconds`` timer before the report takes a snapshot.
    ``check_parity`` replays the walks' (key, tune slot) trace through
    the in-process simulator and records whether every access and
    tuning time is equal.
    """
    completed = [walk for walk in walks if not walk.abandoned]
    reads = sum(walk.tuning_time for walk in walks)
    answered = perf.counters.get("net.station.frames_sent", 0)
    perf.add_seconds("net.loadtest.seconds", wall_seconds)

    parity = None
    if check_parity:
        baseline = simulator_baseline(
            program, [(walk.key, walk.tune_slot) for walk in walks]
        )
        fleet_access = [walk.access_time for walk in walks]
        fleet_tuning = [walk.tuning_time for walk in walks]
        parity = {
            "exact_match": (
                fleet_access == baseline["access_times"]
                and fleet_tuning == baseline["tuning_times"]
            ),
            "fleet_mean_access_time": _mean(fleet_access),
            "simulator_mean_access_time": baseline["mean_access_time"],
            "fleet_mean_tuning_time": _mean(fleet_tuning),
            "simulator_mean_tuning_time": baseline["mean_tuning_time"],
        }

    access = [walk.access_time for walk in completed]
    tuning = [walk.tuning_time for walk in completed]
    return LoadReport(
        tuners=len(walks),
        completed=len(completed),
        abandoned=len(walks) - len(completed),
        wall_seconds=wall_seconds,
        walks_per_second=(
            len(walks) / wall_seconds if wall_seconds > 0 else 0.0
        ),
        mean_access_time=_mean(access),
        mean_tuning_time=_mean(tuning),
        access_percentiles=_percentiles(access),
        tuning_percentiles=_percentiles(tuning),
        mean_channel_switches=_mean(
            [walk.channel_switches for walk in completed]
        ),
        lost_buckets=sum(walk.lost_buckets for walk in walks),
        corrupt_buckets=sum(walk.corrupt_buckets for walk in walks),
        retries=sum(walk.retries for walk in walks),
        wasted_probes=sum(walk.wasted_probes for walk in walks),
        frames_requested=perf.counters.get("net.station.requests", 0),
        frames_answered=answered,
        frames_read=reads,
        unaccounted_frames=answered - reads,
        parity=parity,
        perf=perf.snapshot(),
    )


async def run_loadtest(
    program: BroadcastProgram,
    *,
    tuners: int = 1000,
    rng: np.random.Generator | None = None,
    trace: list[tuple[str, int]] | None = None,
    faults: FaultConfig | None = None,
    policy: RecoveryPolicy | None = None,
    slot_duration: float = 0.0,
    arrival_rate: float = 5000.0,
    max_open: int = 256,
    check_parity: bool = False,
    perf: PerfRecorder | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    flight_recorder=None,
) -> LoadReport:
    """Air ``program`` on loopback and run a concurrent tuner fleet.

    Parameters
    ----------
    tuners:
        Fleet size; each tuner makes one connection and one full walk.
    rng:
        Drives the request trace and the Poisson arrival offsets
        (default: seeded generator 2000). Ignored for the trace when an
        explicit ``trace`` is given.
    trace:
        Optional pre-drawn (key, tune_slot) list; its length overrides
        ``tuners``.
    faults, policy:
        Unreliable-air config injected *at the station* and the client
        fleet's recovery policy.
    slot_duration:
        Station pacing in seconds per slot; 0 runs in logical time (as
        fast as the hardware allows).
    arrival_rate:
        Poisson arrival intensity in tuners/second; 0 starts everyone
        at once.
    max_open:
        Concurrency bound on simultaneously open connections
        (:func:`drive_fleet`).
    check_parity:
        Replay the identical trace through the in-process simulator and
        record exact-equality of every access and tuning time. Requires
        zero-loss air (``faults is None``).
    tracer:
        Optional :class:`~repro.obs.events.Tracer` shared by the
        station and the whole fleet — the live side of a trace diff.
        ``None`` (default) keeps the hot paths on the no-op tracer.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`. When
        given, an :class:`~repro.obs.attrib.AttributionCollector` is
        teed into the fleet's tracer so every completed walk feeds the
        registry's access/tuning/per-phase quantile summaries, the
        completed walks' access times fill a cycle-derived
        :func:`~repro.obs.metrics.slot_buckets` histogram, and the
        run's perf counters are absorbed — all purely observational:
        every measured number stays bit-identical to a run without it
        (the zero-overhead differential locks this).
    flight_recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder`. The
        station and the fleet tee their events into an always-on
        bounded ``fleet`` ring, and the run auto-dumps a postmortem
        bundle when an anomaly fires: a parity failure, non-zero
        unaccounted frames, or an abandoned-walk spike (>5% of the
        fleet). Purely observational, like ``metrics``.

    Returns the aggregated :class:`LoadReport`; ``report.accounting_ok``
    and ``report.parity_ok`` are the acceptance gates.
    """
    if check_parity and faults is not None:
        raise ValueError(
            "parity is defined against lossless air; drop faults= or "
            "check_parity="
        )
    if rng is None:
        rng = np.random.default_rng(2000)
    if trace is None:
        trace = make_request_trace(program, tuners, rng)
    offsets = arrival_offsets(rng, len(trace), arrival_rate)

    if metrics is not None:
        collector = AttributionCollector(metrics)
        tracer = (
            collector if tracer is None else TeeTracer(tracer, collector)
        )
    if flight_recorder is not None:
        ring = flight_recorder.ring("fleet")
        tracer = ring if tracer is None else TeeTracer(tracer, ring)

    perf_recorder = perf if perf is not None else PerfRecorder()
    station = BroadcastStation(
        program,
        faults=faults,
        slot_duration=slot_duration,
        perf=perf_recorder,
        tracer=tracer,
    )
    started = perf_counter()
    async with station:
        walks = await drive_fleet(
            [(0, key, slot) for key, slot in trace],
            [(station.host, station.port)],
            offsets,
            policy=policy,
            max_open=max_open,
            perf=[perf_recorder],
            tracers=[tracer],
        )
    wall = perf_counter() - started

    if metrics is not None:
        # Fed after the fleet is done, from already-measured numbers —
        # exposition changes, measurements cannot.
        access_histogram = metrics.histogram(
            "repro_loadtest_access_time_slots",
            "access-time distribution of completed walks (slots)",
            buckets=slot_buckets(program.cycle_length),
        )
        for walk in walks:
            if not walk.abandoned:
                access_histogram.observe(walk.access_time)
        metrics.absorb_perf(perf_recorder)
    report = summarise_walks(
        program,
        walks,
        perf=perf_recorder,
        wall_seconds=wall,
        check_parity=check_parity,
    )
    if flight_recorder is not None:
        if not report.parity_ok:
            flight_recorder.trigger(
                "parity_failure",
                detail=(
                    "fleet access/tuning times diverged from the "
                    "in-process simulator"
                ),
                tracer=tracer,
            )
        if report.unaccounted_frames != 0:
            flight_recorder.trigger(
                "unaccounted_frames",
                detail=(
                    f"{report.unaccounted_frames} frame(s) sent but never "
                    "consumed by a walk read"
                ),
                tracer=tracer,
            )
        if report.abandoned > max(1, report.tuners // 20):
            flight_recorder.trigger(
                "abandoned_spike",
                detail=(
                    f"{report.abandoned} of {report.tuners} walks abandoned "
                    "(>5% of the fleet)"
                ),
                tracer=tracer,
            )
    return report


def run_loadtest_bench(
    *,
    items: int = 24,
    channels: int = 3,
    fanout: int = 3,
    planner: str = "sorting",
    tuners: int = 50,
    arrival_rate: float = 5000.0,
    max_open: int = 256,
    slot_duration: float = 0.0,
    loss: float = 0.0,
    corruption: float = 0.0,
    check_parity: bool = True,
    seed: int = 2000,
) -> dict:
    """The ``net-loadtest`` bench suite: one seeded fleet on the demo plan.

    :func:`repro.perf.measure` times the fleet alone (station up, walks,
    station down), so ``walks_per_second`` is the fleet size over the
    primitive's ``min``. The slot-denominated metrics and the checks
    come from one more, seed-identical run with the parity replay, which
    is not timed.
    """
    program = build_demo_program(
        items=items, channels=channels, fanout=fanout, planner=planner,
        seed=seed,
    )
    faults = (
        FaultConfig(loss=loss, corruption=corruption, seed=seed)
        if loss or corruption
        else None
    )

    def one_run(parity: bool) -> LoadReport:
        return asyncio.run(
            run_loadtest(
                program,
                tuners=tuners,
                rng=np.random.default_rng(seed),
                faults=faults,
                slot_duration=slot_duration,
                arrival_rate=arrival_rate,
                max_open=max_open,
                check_parity=parity,
            )
        )

    _, timing = measure(lambda: one_run(False))
    report = one_run(check_parity)
    record = report.to_dict()
    return {
        "metrics": {
            "mean_access_time": report.mean_access_time,
            "mean_tuning_time": report.mean_tuning_time,
            "access_p99": report.access_percentiles["p99"],
            "walks_per_second": (
                (report.completed + report.abandoned) / timing.min
            ),
        },
        "checks": record.pop("checks"),
        "timings": {"loadtest_seconds": timing.to_dict()},
        "detail": record,
    }

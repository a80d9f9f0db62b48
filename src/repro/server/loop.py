"""A continuous broadcast server: cycles on air, clients arriving live.

Where :mod:`repro.online.adaptive` evaluates re-planning analytically at
epoch granularity, this module runs the whole stack as an event loop:

* every cycle, the current plan is compiled to a pointer program and
  "aired";
* client requests arrive as a Poisson process, each tuning in at a
  uniform slot and walking the pointers
  (:func:`repro.client.protocol.object_walk`) — so the measured numbers
  are protocol-level, not formula-level;
* every observation feeds the decayed popularity estimator, and every
  ``replan_every`` cycles the server rebuilds the index tree and the
  allocation from its estimates.

This is the integration piece a deployment would actually run; the
tests use it to show measured access times tracking the analytic model
under stationary load and recovering after injected popularity shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Hashable

import numpy as np

from ..broadcast.metrics import expected_access_time
from ..broadcast.pointers import compile_program
from ..client.protocol import (
    AccessRecord,
    RecoveryPolicy,
    object_walk,
    recovering_walk,
)
from ..faults import FaultConfig, FaultInjector
from ..obs.attrib import AttributionCollector
from ..obs.events import NULL_TRACER, ReplanFinished, ReplanStarted, Tracer
from ..obs.metrics import MetricsRegistry, declare_perf_baseline
from ..obs.spans import span_tracer_of
from ..online.adaptive import AdaptiveBroadcaster
from ..perf import PerfRecorder
from ..sched import ScheduleStore, VersionRecord

__all__ = ["CycleStats", "ServerReport", "BroadcastServer"]


@dataclass
class CycleStats:
    """Measured load and latency of one aired cycle.

    ``analytic_access_time`` is the analytic expectation of the schedule
    that *served* this cycle's requests. On a replan cycle the plan is
    rebuilt only after the cycle has aired, so the value is captured
    before ``replan()`` runs — measured-vs-analytic comparisons always
    line up with the schedule the clients actually walked.
    """

    cycle: int
    requests: int
    mean_access_time: float
    mean_tuning_time: float
    analytic_access_time: float
    replanned: bool
    # Fault accounting (all zero on a reliable channel, so lossless
    # runs stay bit-identical to the pre-fault-layer server).
    lost_buckets: int = 0
    corrupt_buckets: int = 0
    retries: int = 0
    abandoned: int = 0

    @property
    def completed(self) -> int:
        """Requests that finished their walk (arrivals minus abandoned)."""
        return self.requests - self.abandoned


@dataclass
class ServerReport:
    """Aggregate outcome of a server run.

    ``perf`` is the run's instrumentation snapshot (counters + timers
    from :class:`repro.perf.PerfRecorder`): requests served, cycles
    aired, replans, and wall-clock seconds split into serve/replan
    phases.
    """

    cycles: list[CycleStats] = field(default_factory=list)
    replans: int = 0
    perf: dict = field(default_factory=dict)
    # True when the run was cut short by SIGINT/KeyboardInterrupt; the
    # stats above still cover every *completed* cycle (nothing is lost
    # on an operator's Ctrl-C — the satellite guarantee).
    interrupted: bool = False

    @property
    def requests_served(self) -> int:
        return sum(stats.requests for stats in self.cycles)

    @property
    def abandoned(self) -> int:
        return sum(stats.abandoned for stats in self.cycles)

    @property
    def lost_buckets(self) -> int:
        return sum(stats.lost_buckets for stats in self.cycles)

    @property
    def corrupt_buckets(self) -> int:
        return sum(stats.corrupt_buckets for stats in self.cycles)

    @property
    def retries(self) -> int:
        return sum(stats.retries for stats in self.cycles)

    @property
    def mean_access_time(self) -> float:
        # Abandoned requests never count toward the mean: they have no
        # finite access time, so both the numerator and the weight use
        # completed requests only.
        total = sum(stats.completed for stats in self.cycles)
        if total == 0:
            return 0.0
        return (
            sum(
                stats.mean_access_time * stats.completed
                for stats in self.cycles
            )
            / total
        )

    def window_mean_access(self, start: int, end: int) -> float:
        """Completed-request-weighted mean access over cycles [start, end)."""
        window = [s for s in self.cycles if start <= s.cycle < end]
        total = sum(s.completed for s in window)
        if total == 0:
            return 0.0
        return sum(s.mean_access_time * s.completed for s in window) / total


class BroadcastServer:
    """The serving loop around an :class:`AdaptiveBroadcaster`.

    Parameters
    ----------
    items:
        Catalog keys (any sortable hashables).
    channels, fanout:
        Broadcast layout knobs, passed through to the planner.
    replan_every:
        Re-plan period in cycles; 0 disables adaptation (static plan).
    half_life:
        Popularity estimator decay, in observed requests.
    planner:
        :mod:`repro.planners` registry name of the allocation strategy
        (default ``"budgeted"``, the historical policy).
    faults:
        Optional :class:`~repro.faults.FaultConfig` describing the
        unreliable channels the server airs into. ``None`` (default)
        is a perfect medium served by the plain lossless protocol; a
        lossless config (``loss=0``, ``corruption=0``, no burst mode)
        produces bit-identical measurements through the recovery path —
        the differential invariant ``broadcast-alloc faults`` checks.
    recovery:
        Client-side :class:`~repro.client.protocol.RecoveryPolicy`
        applied when ``faults`` is given.
    tracer:
        Optional :class:`~repro.obs.events.Tracer`; when enabled the
        loop narrates every replan
        (:class:`~repro.obs.events.ReplanStarted` /
        :class:`~repro.obs.events.ReplanFinished` with its wall-clock
        seconds) and — via the fault injector — every non-OK airing
        decision.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`. When
        given, the standard perf families (including the
        ``server.faults.*`` counters) are declared at zero
        immediately, every served walk feeds the registry's
        access/tuning/per-phase quantile summaries through an
        :class:`~repro.obs.attrib.AttributionCollector`, and each
        :meth:`run` absorbs the lifetime perf counters — a scrape of
        the registry is always current. Purely observational: every
        number in :class:`CycleStats`/:class:`ServerReport` stays
        bit-identical to a run without it.
    store:
        Optional :class:`~repro.sched.ScheduleStore`. When given, the
        initial plan and every replan's outcome are published as store
        versions (content-addressed snapshots), and each
        :meth:`run` flushes a crash snapshot (:meth:`save_state`) on
        the way out — interrupted or not — so :meth:`restore` can
        rebuild the server, its estimator state and its serving plan
        from disk.

    All parameters after ``items`` are keyword-only.
    """

    def __init__(
        self,
        items: list[Hashable],
        *,
        channels: int = 1,
        fanout: int = 2,
        replan_every: int = 0,
        half_life: float = 400.0,
        planner: str = "budgeted",
        faults: FaultConfig | None = None,
        recovery: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        store: ScheduleStore | None = None,
    ) -> None:
        self.planner = AdaptiveBroadcaster(
            items,
            channels=channels,
            fanout=fanout,
            half_life=half_life,
            planner=planner,
        )
        self.replan_every = replan_every
        self.faults = faults
        self.recovery = recovery
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Span capability is detected once: a span-capable tracer makes
        # every replan a "server.replan" root span whose store publish
        # nests under it; a plain tracer costs nothing new.
        self._spans = (
            span_tracer_of(self.tracer) if self.tracer.enabled else None
        )
        self._injector = (
            FaultInjector(faults, tracer=self.tracer)
            if faults is not None
            else None
        )
        self._air_clock = 0  # absolute slots aired so far, across run() calls
        self.perf = PerfRecorder()  # lifetime counters across run() calls
        self.metrics = metrics
        self._collector = (
            AttributionCollector(metrics) if metrics is not None else None
        )
        if metrics is not None:
            declare_perf_baseline(metrics)
        self._next_walk_id = 0
        self.store = store
        self.planner.replan()
        self._publish_plan(note="initial plan")

    # -- durable schedule versions --------------------------------------------
    def _publish_plan(
        self,
        *,
        note: str,
        trace: tuple[int, int] | None = None,
        slot: int = 0,
    ) -> VersionRecord | None:
        """Publish the planner's latest result to the attached store."""
        if self.store is None or self.planner.last_result is None:
            return None
        return self.store.publish(
            self.planner.last_result, note=note, trace=trace, slot=slot
        )

    def save_state(self, report: ServerReport | None = None) -> None:
        """Flush a crash snapshot to the attached store (no-op without one).

        The snapshot carries everything :meth:`restore` needs that the
        version log does not: the constructor configuration, the
        estimator's learned counters (bit-exact), the absolute air
        clock and the head version the server was serving.
        """
        if self.store is None:
            return
        estimator = self.planner.estimator
        state = {
            "config": {
                "items": list(self.planner.items),
                "channels": self.planner.channels,
                "fanout": self.planner.fanout,
                "replan_every": self.replan_every,
                "half_life": math.log(2.0) / estimator._decay_rate,
                "planner": self.planner.planner_name,
            },
            "estimator": estimator.state_dict(),
            "air_clock": self._air_clock,
            "next_walk_id": self._next_walk_id,
            "replans": self.planner.replans,
            "head_version": (
                self.store.head.version if self.store.head else None
            ),
        }
        if report is not None:
            state["last_report"] = {
                "cycles": len(report.cycles),
                "requests_served": report.requests_served,
                "abandoned": report.abandoned,
                "replans": report.replans,
                "mean_access_time": report.mean_access_time,
                "interrupted": report.interrupted,
            }
        self.store.save_state(state)

    @classmethod
    def restore(cls, store: ScheduleStore, **overrides) -> "BroadcastServer":
        """Rebuild a server from a store's crash snapshot.

        The configuration comes from the snapshot (``overrides`` wins
        key-by-key — e.g. to re-attach ``faults``/``tracer``, which a
        snapshot cannot carry); the serving plan is the store's head
        version, loaded integrity-checked; the estimator resumes from
        its exact decayed counters.
        """
        state = store.load_state()
        if state is None:
            raise ValueError(
                f"store at {store.root} has no crash snapshot to restore"
            )
        config = dict(state["config"])
        items = config.pop("items")
        config.update(overrides)
        server = cls(items, **config)
        head = store.head
        if head is not None:
            result = store.load(head.version)
            server.planner.last_result = result
            server.planner.schedule = result.schedule
        server.planner.estimator.load_state(state["estimator"])
        server.planner.replans = int(state.get("replans", 0))
        server._air_clock = int(state.get("air_clock", 0))
        server._next_walk_id = int(state.get("next_walk_id", 0))
        server.store = store
        return server

    # -- one aired cycle ------------------------------------------------------
    def _serve_cycle(
        self,
        cycle_index: int,
        rng: np.random.Generator,
        mean_requests: float,
        probabilities: np.ndarray,
        items: list[Hashable],
    ) -> list[AccessRecord]:
        schedule = self.planner.schedule
        assert schedule is not None
        program = compile_program(schedule)
        leaf_of = {leaf.key: leaf for leaf in schedule.tree.data_nodes()}
        request_count = int(rng.poisson(mean_requests))
        # All requests arriving within one aired cycle see the same air:
        # the injector view is anchored at the cycle's first absolute
        # slot, so two clients probing the same (channel, slot) agree on
        # whether that bucket was lost.
        air = (
            self._injector.shifted(self._air_clock)
            if self._injector is not None
            else None
        )
        records = []
        if request_count:
            # One batched draw per cycle instead of per-request round
            # trips into the generator — the draws stay a deterministic
            # function of the seed, just consumed in one block.
            item_draws = rng.choice(
                len(items), size=request_count, p=probabilities
            )
            tune_draws = rng.integers(
                1, program.cycle_length + 1, size=request_count
            )
            observe = self.planner.observe
            collector = self._collector
            for item_index, tune_slot in zip(item_draws, tune_draws):
                item = items[int(item_index)]
                if collector is not None:
                    walk_id = self._next_walk_id
                    self._next_walk_id += 1
                else:
                    walk_id = None
                if air is None:
                    record: AccessRecord = object_walk(
                        program,
                        leaf_of[item],
                        int(tune_slot),
                        tracer=collector,
                        walk_id=walk_id,
                    )
                else:
                    record = recovering_walk(
                        program,
                        leaf_of[item],
                        int(tune_slot),
                        faults=air,
                        policy=self.recovery,
                        tracer=collector,
                        walk_id=walk_id,
                    )
                records.append(record)
                observe(item)
        self._air_clock += program.cycle_length
        return records

    def run(
        self,
        rng: np.random.Generator,
        cycles: int = 40,
        mean_requests_per_cycle: float = 25.0,
        true_weights: dict[Hashable, float] | None = None,
        shift_at: int | None = None,
        shifted_weights: dict[Hashable, float] | None = None,
    ) -> ServerReport:
        """Air ``cycles`` cycles under a (possibly shifting) true load.

        ``true_weights`` defaults to uniform; if ``shift_at`` is given,
        the load switches to ``shifted_weights`` from that cycle on (a
        "what's hot" change the static server cannot see).
        """
        items = list(self.planner.items)
        if true_weights is None:
            true_weights = {item: 1.0 for item in items}
        report = ServerReport()
        perf = PerfRecorder()
        try:
            for cycle_index in range(cycles):
                if shift_at is not None and cycle_index == shift_at:
                    if shifted_weights is None:
                        raise ValueError("shift_at requires shifted_weights")
                    true_weights = shifted_weights
                raw = np.array(
                    [true_weights[item] for item in items], dtype=float
                )
                probabilities = raw / raw.sum()

                with perf.timer("serve.seconds"):
                    records = self._serve_cycle(
                        cycle_index, rng, mean_requests_per_cycle,
                        probabilities, items,
                    )
                # The analytic expectation must describe the schedule
                # these requests actually walked — capture it before any
                # replan swaps the plan out from under the cycle's
                # statistics.
                serving_schedule = self.planner.schedule
                assert serving_schedule is not None
                analytic = expected_access_time(serving_schedule)

                replanned = False
                if (
                    self.replan_every
                    and (cycle_index + 1) % self.replan_every == 0
                ):
                    tracing = self.tracer.enabled
                    # The replan happens at the cycle boundary the air
                    # clock already points at — a single-slot root span
                    # the store publish nests under (same slot, so the
                    # children tile the parent exactly).
                    span = (
                        self._spans.begin(
                            "server.replan",
                            self._air_clock,
                            component="server",
                            attrs=(("cycle", cycle_index),),
                        )
                        if self._spans is not None
                        else None
                    )
                    if tracing:
                        self.tracer.emit(ReplanStarted(cycle=cycle_index))
                        replan_started = perf_counter()
                    with perf.timer("replan.seconds"):
                        self.planner.replan()
                    published = self._publish_plan(
                        note=f"replan cycle {cycle_index}",
                        trace=span.context if span is not None else None,
                        slot=self._air_clock,
                    )
                    if span is not None:
                        span.end(
                            self._air_clock,
                            version=(
                                published.version
                                if published is not None
                                else 0
                            ),
                        )
                    if tracing:
                        self.tracer.emit(
                            ReplanFinished(
                                cycle=cycle_index,
                                seconds=perf_counter() - replan_started,
                            )
                        )
                    report.replans += 1
                    perf.count("replans")
                    replanned = True

                count = len(records)
                perf.count("cycles")
                perf.count("requests", count)
                # A request that gave up has no finite access time; it
                # is counted (requests, abandoned) but never averaged.
                completed = [
                    r for r in records if not getattr(r, "abandoned", False)
                ]
                done = len(completed)
                lost = sum(getattr(r, "lost_buckets", 0) for r in records)
                corrupt = sum(
                    getattr(r, "corrupt_buckets", 0) for r in records
                )
                retries = sum(getattr(r, "retries", 0) for r in records)
                if self._injector is not None:
                    perf.count("server.faults.lost", lost)
                    perf.count("server.faults.corrupt", corrupt)
                    perf.count("server.faults.retries", retries)
                    perf.count("server.faults.abandoned", count - done)
                    perf.count(
                        "server.faults.wasted_probes",
                        sum(getattr(r, "wasted_probes", 0) for r in records),
                    )
                report.cycles.append(
                    CycleStats(
                        cycle=cycle_index,
                        requests=count,
                        mean_access_time=(
                            sum(r.access_time for r in completed) / done
                            if done
                            else 0.0
                        ),
                        mean_tuning_time=(
                            sum(r.tuning_time for r in completed) / done
                            if done
                            else 0.0
                        ),
                        analytic_access_time=analytic,
                        replanned=replanned,
                        lost_buckets=lost,
                        corrupt_buckets=corrupt,
                        retries=retries,
                        abandoned=count - done,
                    )
                )
        except KeyboardInterrupt:
            # SIGINT mid-run: stop airing, keep every completed cycle's
            # statistics, and flush the perf counters below exactly as a
            # full run would — the operator's Ctrl-C loses nothing.
            report.interrupted = True
            perf.count("interrupts")
        report.perf = perf.snapshot()
        self.perf.merge(perf)
        if self.metrics is not None:
            self.metrics.absorb_perf(self.perf)
        # Interrupted or not, the crash snapshot (estimator counters,
        # air clock, head version, this report's final stats) hits disk
        # before run() returns — an operator's Ctrl-C leaves the store
        # restorable, never mid-write.
        self.save_state(report)
        return report

    # -- the bridge onto real air --------------------------------------------
    def station(self, **options):
        """A :class:`repro.net.BroadcastStation` airing the current plan.

        This is how the in-process serving loop graduates to sockets:
        the server's planner/estimator stack keeps deciding *what* to
        broadcast, and the returned (unstarted) station puts that plan
        on the air. The server's fault model is inherited unless
        ``options`` overrides ``faults=``; any
        :class:`~repro.net.station.BroadcastStation` keyword passes
        through. Start it with ``async with server.station() as st:``.
        """
        from ..broadcast.pointers import compile_program
        from ..net.station import BroadcastStation

        schedule = self.planner.schedule
        if schedule is None:
            raise RuntimeError("no plan yet; call planner.replan() first")
        options.setdefault("faults", self.faults)
        if self.store is not None:
            head = self.store.head
            if head is not None:
                # A store-backed server airs *versioned* envelopes, so a
                # later publish/rollback is visible to every tuner
                # mid-walk.
                options.setdefault("schedule_version", head.version)
        return BroadcastStation(compile_program(schedule), **options)

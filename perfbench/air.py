"""The air workloads: a station and its tuners in one event loop on loopback.

The station runs in logical time (``slot_duration=0``), so a walk costs
exactly the work of its frames: the LISTEN line, the airing, envelope
encoding, the socket, stream decoding and the pointer-walk step.

``air-steady`` keeps two persistent connections on the 24-item demo plan
over lossless air. ``air-churn`` opens a fresh connection per walk, half
of them to a 1,000-item plan that is replanned and rolled back on the
air, half to the same plan under seeded loss and corruption. Walks over
a lossy cutover fail through a known defect, so ``air-churn`` measures
that combination off the socket instead (``_cutover_defect``).
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import statistics
import time

import numpy as np

from repro.client.protocol import RecoveryPolicy
from repro.client.walk import LookupFailed
from repro.faults import FaultConfig
from repro.io.wire import WireFormatError
from repro.net.harness import build_demo_plan, make_request_trace
from repro.net.station import BroadcastStation
from repro.net.tuner import TunerClient
from repro.perf import PerfRecorder
from repro.planners import plan_catalog
from repro.sched.store import ScheduleStore
from repro.workloads.weights import zipf_weights

from . import checks, replay
from .common import (
    HostSpeed, Outcome, SetupTimes, Spans, Windows, mean, pooled_ms, rng_for, settle_heap,
    spread_over, window_quantile_ms,
)
from .params import (
    AIR_CHURN,
    AIR_PHASES,
    AIR_STEADY,
    CATALOG_SEED,
    CHECK_WALKS,
    CORRUPTION,
    LOSS,
    MAX_CYCLES,
    WINDOWS,
)
from .phases import Sim, Steps, plan_stats, replan_path

_READS = ("net.tuner.frames", "net.tuner.lost", "net.tuner.corrupt", "net.tuner.cutovers")
#: Walks run one at a time, with airing logs on, in a traced run.
_ACCOUNTING_WALKS = 300


def _reads(perf: PerfRecorder) -> int:
    return sum(perf.counters.get(name, 0) for name in _READS)


class Walks:
    """Every walk a run attempted: inputs, outcome and frames read."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []  # (station tag, key, tune, result, error, reads)
        self.ok = 0
        self.errors: dict[str, int] = {}

    async def fetch(self, tag: int, tuner: TunerClient, key: str, tune: int, index: int) -> None:
        before = _reads(tuner.perf)
        result = error = None
        try:
            result = await tuner.fetch(key, tune, walk_id=index)
            reads = result.tuning_time
        except (LookupFailed, WireFormatError) as failure:
            # The read whose bucket the walk rejected was consumed but
            # not yet counted by the tuner.
            error, reads = failure, _reads(tuner.perf) - before + 1
        except Exception as failure:  # counted as a failed walk, never hidden
            error, reads = failure, _reads(tuner.perf) - before
        if error is not None:
            name = type(error).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
        elif not result.abandoned:
            self.ok += 1
        self.rows.append((tag, key, tune, result, error, reads))

    def completed(self, tag: int | None = None):
        return [
            (key, tune, result)
            for t, key, tune, result, _, _ in self.rows
            if result is not None and not result.abandoned and tag in (None, t)
        ]

    def reads(self, tag: int) -> int:
        return sum(row[5] for row in self.rows if row[0] == tag)

    @property
    def failed(self) -> int:
        return len(self.rows) - self.ok


async def _closed_loop(seconds: float, workers: int, walk, walks: Walks, counter,
                       windows: Windows) -> None:
    """One window of ``workers`` clients, each sending its next walk when the last returns."""
    end = time.perf_counter() + seconds

    async def client(worker: int) -> None:
        while time.perf_counter() < end:
            await walk(next(counter), worker, -1)

    windows.start(walks.ok)
    await asyncio.gather(*(client(w) for w in range(workers)))
    windows.stop(walks.ok)


async def _open_loop(seconds: float, rate: float, rng, workers: int, walk, walks: Walks,
                     counter, spans: Spans) -> dict:
    """Poisson arrivals at ``rate``; each walk is timed from when it was due."""
    offsets = np.cumsum(rng.exponential(1.0 / rate, int(rate * seconds * 1.5) + 16))
    offsets = offsets[offsets < seconds]
    queue: asyncio.Queue = asyncio.Queue()
    late, waited, latency = [], [], []
    origin = time.perf_counter()

    async def generator() -> None:
        for offset in offsets:
            due = origin + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            queue.put_nowait((next(counter), due))
        for _ in range(workers):
            queue.put_nowait(None)

    async def client(worker: int) -> None:
        while (item := await queue.get()) is not None:
            index, due = item
            root = spans.open("walk", index, start=due)
            started = time.perf_counter()
            spans.record("queue", index, root, due, started)
            waited.append(started - due)
            ok_before = walks.ok
            await walk(index, worker, root)
            spans.close(root)
            if walks.ok > ok_before:
                latency.append(time.perf_counter() - due)

    await asyncio.gather(generator(), *(client(w) for w in range(workers)))
    return {"late": late, "waited": waited, "window": (origin, time.perf_counter(), latency)}


async def _trace_overhead(walk, walks: Walks, counter, spans: Spans, workers: int,
                         host: HostSpeed) -> float:
    """Closed-loop wall per walk with spans on, over the same with spans off."""
    windows = {False: Windows(), True: Windows()}
    for _ in range(8):
        for on in (False, True):
            spans.on = on
            host.sample()
            await _closed_loop(0.125, workers, walk, walks, counter, windows[on])
    host.sample()
    return windows[False].rates(host)[0] / windows[True].rates(host)[0]


async def _layer_accounting(spans: Spans, stations, policy, walk, counter, walks: Walks) -> dict:
    """Serial walks with airing logs on, then their replay off the socket.

    One walk at a time, so a ``fetch`` span holds only that walk's own
    work; the replayed cost of its layers subtracted from it leaves the
    socket and event-loop residual.
    """
    logs = replay.attach_logs(stations)
    first_walk, first_span = len(walks.rows), len(spans.rows)
    for _ in range(_ACCOUNTING_WALKS):
        await walk(next(counter), 0, -1)
    replay.detach_logs(stations)
    fetches = [r[2] - r[1] for r in spans.rows[first_span:] if r[0] == "fetch"]
    served = [(stations[row[0]], row[1], row[2]) for row in walks.rows[first_walk:]]
    costs = replay.layer_costs(served, policy, list(zip(stations, logs)))
    fetch_us = 1e6 * mean(fetches)
    layers_us = costs["frames_per_walk"] * (
        costs["airing_us"] + costs["encode_air_frame_us"] + costs["decode_us"] + costs["step_us"]
    )
    return {
        "net.station.airing_us": costs["airing_us"],
        "io.wire.encode_air_frame_us": costs["encode_air_frame_us"],
        "io.wire.decode_us": costs["decode_us"],
        "client.walk.step_us": costs["step_us"],
        "io.wire.bytes_per_walk": costs["bytes_per_walk"],
        "net.tuner.fetch_ms": fetch_us / 1e3,
        "net.socket_loop_us": fetch_us - layers_us,
        "log_matches": costs["log_matches"],
    }


async def _measure(seed: int, seconds: float, spans: Spans, params: dict, walk, walks: Walks,
                   stations, policy, program, sim: Sim, replan, setup_again,
                   host: HostSpeed) -> dict:
    """The phases both air workloads share, interleaved; returns their metrics.

    Each of ``WINDOWS`` rounds runs one replan (``replan(round)`` returns
    its label, start and seconds), one closed-loop window, one open-loop
    window and one simulation window, with a host speed sample before
    each (see ``common.HostSpeed``). Rounds spread over the run also
    repeat the set-up first (``setup_again``).
    """
    counter = itertools.count()
    workers = params["connections"]
    arrivals = rng_for(seed, "arrivals")
    closed, slices, replans = Windows(), [], {}
    setup_rounds = spread_over(WINDOWS, params["setup_repeats"] - 1)
    for round_index in range(WINDOWS):
        if round_index in setup_rounds:
            settle_heap()
            await setup_again()
        settle_heap()
        host.sample()
        label, started, elapsed = replan(round_index)
        replans.setdefault(label, []).append(host.scaled(elapsed, started, started + elapsed))
        host.sample()
        await _closed_loop(seconds * AIR_PHASES["closed"] / WINDOWS, workers, walk, walks,
                           counter, closed)
        host.sample()
        slices.append(await _open_loop(
            seconds * AIR_PHASES["open"] / WINDOWS, params["offered_rate"], arrivals,
            workers, walk, walks, counter, spans))
        host.sample()
        sim.run(program, seconds * AIR_PHASES["sim"] / WINDOWS)
    host.sample()
    metrics = sim.metrics(host)
    if spans.on:
        metrics.update(await _layer_accounting(spans, stations, policy, walk, counter, walks))
        metrics["bench.trace_overhead"] = await _trace_overhead(
            walk, walks, counter, spans, workers, host)
    walks_per_s, cpu_us = closed.rates(host)
    done = walks.completed()
    windows = [s["window"] for s in slices]
    metrics.update({
        # The median host-scaled replan of each kind (see
        # common.Windows), averaged over the kinds the workload replans.
        "replan_s": mean([statistics.median(times) for times in replans.values()]),
        "walks_per_s": walks_per_s,
        "cpu_us_per_walk": cpu_us,
        "walk_p50_ms": window_quantile_ms(windows, 0.50, host),
        "bench.walk_p90_ms": pooled_ms(windows, 0.90),
        "access_slots_mean": mean([r.access_time for _, _, r in done]),
        "tuning_slots_mean": mean([r.tuning_time for _, _, r in done]),
        "bench.queue_wait_ms": 1e3 * mean([x for s in slices for x in s["waited"]]),
        "bench.generator_late_ms": 1e3 * mean([x for s in slices for x in s["late"]]),
    })
    return metrics


def _layer_metrics(tuner_perf: PerfRecorder, stations, walks: Walks, replans: Steps,
                   spans: Spans) -> dict:
    n = max(1, len(walks.rows))
    read = sum(row[5] for row in walks.rows)
    station = PerfRecorder()
    for s in stations:
        station.merge(s.perf)
    return {
        "planners.plan_s": mean(replans.times["plan"]),
        "sched.store.publish_s": mean(replans.times["publish"]),
        "sched.store.load_s": mean(replans.times["load"]),
        "broadcast.pointers.compile_s": mean(replans.times["compile"]),
        "io.wire.encode_program_s": mean(replans.times["encode"]),
        "io.wire.crc_rejects": tuner_perf.counters.get("net.tuner.corrupt", 0) / n,
        "net.station.frames_per_walk": station.counters.get("net.station.frames_sent", 0) / n,
        "net.station.connections": station.counters.get("net.station.connections", 0) / n,
        "faults.lost_aired": station.counters.get("net.station.lost_aired", 0) / n,
        "faults.corrupt_aired": station.counters.get("net.station.corrupt_aired", 0) / n,
        "net.tuner.retries": tuner_perf.counters.get("net.tuner.retries", 0) / n,
        "net.tuner.cutovers": tuner_perf.counters.get("net.tuner.cutovers", 0) / n,
        "net.tuner.useful_read_ratio": tuner_perf.counters.get("net.tuner.frames", 0) / max(1, read),
        "net.tuner.connect_ms": 1e3 * mean(
            [r[2] - r[1] for r in spans.rows if r[0] == "connect"]),
        "net.station.unaccounted_frames": sum(
            s.perf.counters.get("net.station.frames_sent", 0) - walks.reads(tag)
            for tag, s in enumerate(stations)),
        "bench.failed_ratio": walks.failed / n,
    }


def _finish(out: Outcome, seed: int, program, plans, store, records,
            stations, walks: Walks, sim: Sim) -> None:
    """The plan figures and the checks both air workloads share."""
    out.metrics.update(plan_stats(plans))
    out.metrics["data_wait"] = mean([plan.cost for plan in plans])
    out.metrics["sched.store.bytes_per_version"] = store.size_bytes() / len(store.versions())
    out.failed = walks.failed
    out.errors = walks.errors
    for tag, station in enumerate(stations):
        out.check("frames_accounted", checks.frames_accounted(
            f"station {tag}", station.perf.counters.get("net.station.frames_sent", 0),
            walks.reads(tag)))
    out.check("payloads_intact", checks.payloads_intact(walks.completed()))
    for plan in plans:
        out.check("plan_sound", checks.plan_sound(plan))
    for record in records:
        out.check("store_round_trip", checks.store_round_trip(store, record))
    out.check("batch_matches_scalar", checks.batch_matches_scalar(
        program, sim.dense, rng_for(seed, "check"), CHECK_WALKS, sim.faults, sim.policy))
    if "log_matches" in out.metrics:
        out.check("replay_matches_live_log",
                  [] if out.metrics.pop("log_matches") else ["replayed airings differ"])


async def _first_setup(setup, spans: Spans):
    """Run ``setup(steps, repeat)`` once; returns its state, its clock and a repeater.

    The repeater sets up again, timed into the same clock, and tears
    that set-up down: the run keeps the first.
    """
    clock = SetupTimes()
    repeats = itertools.count()

    async def once() -> dict:
        started = time.perf_counter()
        steps = Steps(spans, spans.open("setup"))
        state = await setup(steps, next(repeats))
        spans.close(steps.parent)
        clock.add(steps.times, started)
        return state

    async def again() -> None:
        await _teardown(await once())

    return await once(), clock, again


async def _teardown(state: dict) -> None:
    for tuner in state["tuners"]:
        await tuner.aclose()
    for station in state["stations"]:
        await station.aclose()


def _replanner(spans: Spans, store, catalogs):
    """One replan per call, cycling through ``catalogs`` — (label, make_plan) pairs."""
    steps = Steps(spans)

    def replan(round_index: int) -> tuple[str, float, float]:
        label, make_plan = catalogs[round_index % len(catalogs)]
        steps.parent = spans.open("replan", round_index)
        started = time.perf_counter()
        replan_path(steps, store, make_plan)
        elapsed = time.perf_counter() - started
        spans.close(steps.parent)
        return label, started, elapsed

    return replan, steps


# ---------------------------------------------------------------------------
# air-steady
# ---------------------------------------------------------------------------

async def _steady(seed: int, seconds: float, spans: Spans, workdir) -> Outcome:
    params = AIR_STEADY

    async def setup(steps: Steps, repeat: int) -> dict:
        with steps("store"):
            store = ScheduleStore(workdir / f"setup{repeat}")
        plan, record, program, _ = replan_path(steps, store, build_demo_plan)
        with steps("start"):
            station = BroadcastStation(program, schedule_version=record.version)
            await station.start()
        tuners = []
        for _ in range(params["connections"]):
            with steps("connect"):
                tuners.append(await TunerClient(station.host, station.port).connect())
        return {"plan": plan, "program": program, "store": store, "record": record,
                "stations": [station], "tuners": tuners}

    state, clock, setup_again = await _first_setup(setup, spans)
    program, tuners = state["program"], state["tuners"]
    trace = make_request_trace(program, params["trace_walks"], rng_for(seed, "trace"))
    walks = Walks()

    async def walk(index: int, worker: int, parent: int) -> None:
        key, tune = trace[index % len(trace)]
        span = spans.open("fetch", index, parent)
        await walks.fetch(0, tuners[worker], key, tune, index)
        spans.close(span)

    out = Outcome()
    sim = Sim(rng_for(seed, "sim"), params["sim_walks"], len(program.schedule.tree.data_nodes()))
    replan, replans = _replanner(spans, state["store"], [("demo", build_demo_plan)])
    out.metrics.update(await _measure(seed, seconds, spans, params, walk, walks,
                                      state["stations"], None, program, sim, replan,
                                      setup_again, out.host))
    tuner_perf = PerfRecorder()
    for tuner in tuners:
        tuner_perf.merge(tuner.perf)
    await _teardown(state)

    out.metrics.update(_layer_metrics(tuner_perf, state["stations"], walks, replans, spans))
    out.metrics["setup_s"] = clock.seconds(out.host)
    out.attempted = len(walks.rows) + len(replans.times["plan"])
    _finish(out, seed, program, [state["plan"]], state["store"], [state["record"]],
            state["stations"], walks, sim)
    # Lossless air must complete every walk: one that failed or was
    # abandoned fails the check, not only ``ok_ratio``.
    out.check("walks_equal_object_walk", checks.walks_completed(
        [(key, tune, result, error) for _, key, tune, result, error, _ in walks.rows]))
    out.check("walks_equal_object_walk",
              checks.walks_match(checks.WalkOracle(program), walks.completed()))
    return out


def run_air_steady(seed: int, seconds: float, spans: Spans, workdir) -> Outcome:
    return asyncio.run(_steady(seed, seconds, spans, workdir))


# ---------------------------------------------------------------------------
# air-churn
# ---------------------------------------------------------------------------

def _cutover_station(programs, faults=None) -> BroadcastStation:
    """A station airing ``programs``: a plan, its replan and the rollback.

    The replan goes live at the second cycle boundary, as in
    sched/harness.py: every walk tunes in during cycle 1 and descends
    into cycle 2, so every walk crosses it. The rollback goes live two
    cycles of the replan later. The two plans differ in cycle length.
    """
    program_a, program_b, program_back = programs
    replan_slot = 1 + program_a.cycle_length
    station = BroadcastStation(program_a, faults=faults, schedule_version=1)
    station.publish(program_b, version=2, activate_at_slot=replan_slot)
    station.publish(program_back, version=3,
                    activate_at_slot=replan_slot + 2 * program_b.cycle_length)
    return station


def _cutover_defect(programs, faults, trace, policy, count: int) -> tuple[int, int]:
    """Walks over the cutover under loss: (failed, attempted).

    Under loss, a walk restarted by a cutover to a plan of another cycle
    length retries with the retired plan's cycle length and raises
    ``LookupFailed`` or ``WireFormatError`` (NOTES.md, "Known defect").
    How many walks that hits depends on which of them a live run reaches
    in its time, and no operation of a run may fail, so the live walks
    ride the cutover on lossless air and a fixed set of ``count`` walks
    rides it here, off the socket, through the objects ``TunerClient``
    drives (``replay.drive``), spread over one station per fault config.
    The count is the same for the same seed.
    """
    stations = [_cutover_station(programs, config) for config in faults]
    failed = 0
    for index in range(count):
        key, tune = trace[index]
        try:
            replay.drive(stations[index % len(stations)], key, tune, policy, [])
        except (LookupFailed, WireFormatError):
            failed += 1
    return failed, count


async def _churn(seed: int, seconds: float, spans: Spans, workdir) -> Outcome:
    params = AIR_CHURN
    items = params["items"]
    labels = [f"K{index:03d}" for index in range(items)]
    catalogs = [
        (name, functools.partial(
            plan_catalog, labels,
            zipf_weights(np.random.default_rng(CATALOG_SEED), items, theta=theta),
            params["channels"], method="meta", fanout=params["fanout"], wire_safe=True))
        for name, theta in (("baseline", params["theta"]), ("replan", params["replan_theta"]))
    ]
    # Timeline stations air the cutover and the rollback on lossless air;
    # control stations air the baseline plan alone under faults. One
    # fault pattern decides the fate of nearly every walk on a station,
    # so the faulty walks are spread over independently seeded stations.
    timelines, controls = params["timelines"], params["controls"]
    faults, defect_faults = [
        [FaultConfig(loss=LOSS, corruption=CORRUPTION, seed=int(fault_seed))
         for fault_seed in rng_for(seed, stream).integers(0, 2**31, count)]
        for stream, count in (("faults", controls), ("defect faults", params["defect_stations"]))
    ]
    policy = RecoveryPolicy(max_cycles=MAX_CYCLES)

    async def setup(steps: Steps, repeat: int) -> dict:
        with steps("store"):
            store = ScheduleStore(workdir / f"setup{repeat}")
        (plan_a, record_a, program_a, _), (plan_b, record_b, program_b, _) = [
            replan_path(steps, store, make_plan) for _, make_plan in catalogs]
        with steps("rollback"):
            record_back = store.rollback(record_a.version, note="roll back the replan")
            program_back = store.load(record_back.version).compile()
        programs = (program_a, program_b, program_back)
        stations = []
        with steps("start"):
            for number in range(timelines + controls):
                if number < timelines:
                    station = _cutover_station(programs)
                else:
                    station = BroadcastStation(program_a, faults=faults[number - timelines],
                                               schedule_version=1)
                await station.start()
                stations.append(station)
        with steps("connect"):
            first = await TunerClient(stations[0].host, stations[0].port, policy=policy).connect()
        await first.aclose()
        return {"plans": [plan_a, plan_b], "program": program_a, "programs": programs,
                "store": store, "records": [record_a, record_b, record_back],
                "stations": stations, "tuners": []}

    state, clock, setup_again = await _first_setup(setup, spans)
    stations, program = state["stations"], state["program"]
    trace = make_request_trace(program, params["trace_walks"], rng_for(seed, "trace"))
    walks = Walks()
    tuner_perf = PerfRecorder()
    every = params["control_every"]

    async def walk(index: int, worker: int, parent: int) -> None:
        key, tune = trace[index % len(trace)]
        if index % every == every - 1:
            tag = timelines + index // every % controls
        else:
            tag = index % timelines
        tuner = TunerClient(stations[tag].host, stations[tag].port, policy=policy,
                            perf=PerfRecorder())
        span = spans.open("connect", index, parent)
        await tuner.connect()
        spans.close(span)
        try:
            span = spans.open("fetch", index, parent)
            await walks.fetch(tag, tuner, key, tune, index)
            spans.close(span)
        finally:
            span = spans.open("aclose", index, parent)
            await tuner.aclose()
            spans.close(span)
        tuner_perf.merge(tuner.perf)

    out = Outcome()
    sim = Sim(rng_for(seed, "sim"), params["sim_walks"], items)
    replan, replans = _replanner(spans, state["store"], catalogs)
    out.metrics.update(await _measure(seed, seconds, spans, params, walk, walks,
                                      stations, policy, program, sim, replan, setup_again,
                                      out.host))
    await _teardown(state)

    out.metrics.update(_layer_metrics(tuner_perf, stations, walks, replans, spans))
    out.metrics["setup_s"] = clock.seconds(out.host)
    out.attempted = len(walks.rows) + len(replans.times["plan"])
    _finish(out, seed, program, state["plans"], state["store"], state["records"],
            stations, walks, sim)
    for tag in range(timelines, timelines + controls):
        out.check("control_walks_equal_recovering_walk", checks.walks_match(
            checks.WalkOracle(program, faults[tag - timelines], policy),
            walks.completed(tag=tag)))
    out.defect = _cutover_defect(state["programs"], defect_faults, trace, policy,
                                 params["defect_walks"])
    out.metrics["client.walk.cutover_loss_failed"] = out.defect[0] / out.defect[1]
    return out


def run_air_churn(seed: int, seconds: float, spans: Spans, workdir) -> Outcome:
    return asyncio.run(_churn(seed, seconds, spans, workdir))

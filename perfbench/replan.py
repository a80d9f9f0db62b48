"""The replan workload: the ``serve --store`` path, with no sockets.

``replan-stream`` keeps catalogs of 8 to 2,500 items, one group per
``meta`` regime (exact search, dfs-bnb, shrink-combine, sorting, ptas),
so the paper's exact search is measured. Each epoch replans every
catalog along ``plan_catalog`` -> ``ScheduleStore.publish`` -> ``load``
-> ``compile()`` -> ``encode_program`` on seeded weight drift, then
walks the current plans frame by frame in process (``wire_walk``), then
runs the batch engine on the largest plan.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

from repro.io.wire_client import wire_walk
from repro.net.harness import make_request_trace
from repro.planners import plan_catalog
from repro.sched.store import ScheduleStore
from repro.workloads.weights import zipf_weights

from . import checks
from .common import (
    Outcome, SetupTimes, Spans, Windows, mean, pooled_ms, rng_for, settle_heap, spread_over,
    window_quantile_ms,
)
from .params import (
    CATALOG_SEED,
    CHECK_WALKS,
    REPLAN_PHASES,
    REPLAN_STREAM,
)
from .phases import Sim, Steps, plan_stats, regime_of, replan_path

#: Fields a frame-level walk record shares with the object-level walk.
WIRE_FIELDS = ("access_time", "data_wait", "tuning_time", "channel_switches")


class Catalog:
    """One catalog, the noise its weights get each epoch, and its store."""

    def __init__(self, name: str, items: int, theta: float, seed: int, store_dir) -> None:
        self.name = name
        self.labels = [f"K{index:05d}" for index in range(items)]
        # The catalog is fixed; the seed draws how each epoch perturbs it.
        self.base = np.asarray(
            zipf_weights(rng_for(CATALOG_SEED, f"{name}/weights"), items, theta=theta))
        self.drift = rng_for(seed, f"{name}/drift")
        self.store = ScheduleStore(store_dir)
        self.last = None  # (plan, record, program, frames) of the latest replan

    def step(self, sigma: float) -> list[float]:
        """This epoch's weights: the catalog's under fresh log-normal noise.

        Each epoch perturbs the same catalog, rather than the last
        epoch's weights, so the plans' cost does not wander with the
        number of epochs.
        """
        noise = np.exp(sigma * self.drift.standard_normal(len(self.base)))
        return [float(w) for w in self.base * noise]


class _Walking:
    """Frame-level walk windows over the catalogs' current plans."""

    def __init__(self, seed: int, per_window: int) -> None:
        self.seed, self.per_window = seed, per_window
        self.windows = Windows()
        self.latency: list[tuple[float, float, list[float]]] = []
        self.access: list[int] = []
        self.tuning: list[int] = []

    def run(self, out: Outcome, catalogs, window: int, seconds: float) -> None:
        """Walk round-robin over the catalogs for ``seconds``, then check the walks."""
        traces = [
            [(catalog, key, tune) for key, tune in make_request_trace(
                catalog.last[2], self.per_window,
                rng_for(self.seed, f"{catalog.name}/walks/{window}"))]
            for catalog in catalogs
        ]
        trace = [entry for group in zip(*traces) for entry in group]
        latency, done = [], []
        self.windows.start(0)
        begun = time.perf_counter()
        end = begun + seconds
        while time.perf_counter() < end:
            catalog, key, tune = trace[len(done) % len(trace)]
            started = time.perf_counter()
            record = wire_walk(catalog.last[3], key, tune)
            latency.append(time.perf_counter() - started)
            done.append((catalog, key, tune, record))
        self.windows.stop(len(done))
        out.attempted += len(done)
        self.latency.append((begun, time.perf_counter(), latency))
        self.access += [record.access_time for *_, record in done]
        self.tuning += [record.tuning_time for *_, record in done]
        for catalog in catalogs:
            mine = [(key, tune, record) for c, key, tune, record in done if c is catalog]
            out.check("wire_walks_equal_object_walk", checks.walks_match(
                checks.WalkOracle(catalog.last[2]), mine, WIRE_FIELDS))
            out.check("payloads_intact", checks.payloads_intact(mine))

    def metrics(self, host) -> dict:
        """Median host-scaled window's rate and latency; slot means over every walk."""
        walks_per_s, cpu_us = self.windows.rates(host)
        return {
            "walks_per_s": walks_per_s,
            "cpu_us_per_walk": cpu_us,
            "walk_p50_ms": window_quantile_ms(self.latency, 0.50, host),
            "bench.walk_p90_ms": pooled_ms(self.latency, 0.90),
            "access_slots_mean": mean(self.access),
            "tuning_slots_mean": mean(self.tuning),
        }


def run_replan_stream(seed: int, seconds: float, spans: Spans, workdir) -> Outcome:
    """Set up, then epochs of: replan every catalog, walk, simulate.

    The epoch count follows from ``seconds`` and the nominal epoch time,
    never from the measured speed: the store keeps every version it
    published in memory, so a run that replanned more would leave a
    larger heap, and a larger heap makes walks and simulation pay more
    for garbage collection.
    """
    params = REPLAN_STREAM
    groups = [(items, theta) for count, items, theta in params["catalogs"] for _ in range(count)]
    epochs = max(params["min_epochs"],
                 round(seconds * REPLAN_PHASES["replan"] / params["epoch_s"]))
    out = Outcome()
    clock = SetupTimes()

    def setup(repeat: int) -> list[Catalog]:
        started = time.perf_counter()
        steps = Steps(spans, spans.open("setup"))
        with steps("catalogs"):
            made = [
                Catalog(f"c{number}", items, theta, seed,
                        workdir / f"setup{repeat}" / f"c{number}")
                for number, (items, theta) in enumerate(groups)
            ]
        spans.close(steps.parent)
        clock.add(steps.times, started)
        return made

    catalogs = setup(0)
    # Set-up is repeated at epochs spread over the run (see SetupTimes).
    setup_epochs = spread_over(epochs, params["setup_repeats"] - 1)
    biggest = max(catalogs, key=lambda c: len(c.labels))
    sim = Sim(rng_for(seed, "sim"), params["sim_walks"], len(biggest.labels))
    walking = _Walking(seed, params["walks_per_window"])
    steps = Steps(spans)
    plans, regime_seconds, replans = [], {}, {}
    replan_times: dict[bool, list[float]] = {False: [], True: []}
    traced = spans.on
    for epoch in range(epochs):
        if epoch in setup_epochs:
            settle_heap()
            setup(1 + len(clock.repeats))
        settle_heap()
        out.host.sample()
        # A traced run alternates spans off and on per epoch, which is
        # how it measures what the spans cost.
        spans.on = traced and epoch % 2 == 1
        for catalog in catalogs:
            weights = catalog.step(params["drift_sigma"])
            steps.parent = spans.open("replan", epoch)
            started = time.perf_counter()
            try:
                catalog.last = replan_path(steps, catalog.store, functools.partial(
                    plan_catalog, catalog.labels, weights, params["channels"],
                    method="meta", fanout=params["fanout"]))
            except Exception as error:  # a failed replan is counted, never hidden
                out.failed += 1
                out.errors[type(error).__name__] = out.errors.get(type(error).__name__, 0) + 1
                # The plans are deterministic, so a replan that fails is a fault.
                out.check("replans_succeed", [
                    f"{catalog.name} epoch {epoch}: {type(error).__name__}: {error}"])
                continue  # the catalog keeps airing its previous plan
            finally:
                spans.close(steps.parent)
                out.attempted += 1
            elapsed = time.perf_counter() - started
            replan_times[spans.on].append(elapsed)
            replans.setdefault(catalog.name, []).append((started, elapsed))
            plan = catalog.last[0]
            plans.append(plan)
            regime = regime_of(plan)
            regime_seconds[regime] = regime_seconds.get(regime, 0.0) + steps.times["plan"][-1]
            out.check("plan_sound", checks.plan_sound(plan))
        spans.on = traced
        settle_heap()
        out.host.sample()
        walking.run(out, catalogs, epoch, seconds * REPLAN_PHASES["walks"] / epochs)
        settle_heap()
        out.host.sample()
        sim.run(biggest.last[2], seconds * REPLAN_PHASES["sim"] / epochs)
    out.host.sample()

    out.metrics.update(walking.metrics(out.host))
    out.metrics.update(sim.metrics(out.host))
    out.metrics.update(plan_stats(plans, regime_seconds))
    if traced and out.metrics["planners.max_regime_share"] > 0.5:
        # Not a failed check: a later speed-up of one regime may shift
        # the mix without any output being wrong.
        print("perfbench: one meta regime took over half the plan time: "
              + str({name: round(seconds_, 3) for name, seconds_ in regime_seconds.items()}),
              file=sys.stderr)
    versions = sum(len(c.store.versions()) for c in catalogs)
    out.metrics.update({
        "setup_s": clock.seconds(out.host),
        # Every epoch replans the same catalogs: each catalog's median
        # host-scaled replan (see common.Windows), every catalog
        # counting once, as in an epoch.
        "replan_s": mean([
            statistics.median(out.host.scaled(elapsed, started, started + elapsed)
                              for started, elapsed in times)
            for times in replans.values()]),
        "data_wait": mean([plan.cost for plan in plans]),
        "planners.plan_s": mean(steps.times["plan"]),
        "sched.store.publish_s": mean(steps.times["publish"]),
        "sched.store.load_s": mean(steps.times["load"]),
        "broadcast.pointers.compile_s": mean(steps.times["compile"]),
        "io.wire.encode_program_s": mean(steps.times["encode"]),
        "sched.store.bytes_per_version": sum(c.store.size_bytes() for c in catalogs) / versions,
        "bench.failed_ratio": out.failed / out.attempted,
    })
    if traced and replan_times[False] and replan_times[True]:
        out.metrics["bench.trace_overhead"] = (
            mean(replan_times[True]) / mean(replan_times[False]))

    for catalog in catalogs:
        out.check("store_round_trip", checks.store_round_trip(catalog.store, catalog.last[1]))
    out.check("batch_matches_scalar", checks.batch_matches_scalar(
        biggest.last[2], sim.dense, rng_for(seed, "check"), CHECK_WALKS, sim.faults, sim.policy))
    return out

"""Phases every workload shares: timed steps, the batch simulation, plan stats."""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.client.protocol import RecoveryPolicy
from repro.engine.batch import run_batch
from repro.engine.dense import compile_dense
from repro.faults import FaultConfig
from repro.io.wire import encode_program

from .params import CORRUPTION, LOSS


#: Metric name suffix per ``meta`` decision ("auto" is exact search).
REGIMES = {"auto": "exact", "dfs-bnb": "dfs-bnb", "shrink-combine": "shrink-combine",
           "sorting": "sorting", "ptas": "ptas"}


class Steps:
    """Wall time of named pipeline steps, each also recorded as a span."""

    def __init__(self, spans, parent: int = -1) -> None:
        self.spans = spans
        self.parent = parent
        self.times: dict[str, list[float]] = {}

    @contextmanager
    def __call__(self, name: str):
        span = self.spans.open(name, parent=self.parent)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.times.setdefault(name, []).append(time.perf_counter() - started)
            self.spans.close(span)


def replan_path(steps: Steps, store, make_plan):
    """The ``serve --store`` path: plan, publish, load, compile, encode.

    Returns the plan as loaded back, its record, program and frames.
    """
    with steps("plan"):
        plan = make_plan()
    with steps("publish"):
        record = store.publish(plan)
    with steps("load"):
        loaded = store.load(record.version)
    with steps("compile"):
        program = loaded.compile()
    with steps("encode"):
        frames = encode_program(program)
    return loaded, record, program, frames


class Sim:
    """Rounds of dense compile plus a lossless and a faulty batch.

    The end-to-end rate is the median host-scaled round (see
    ``common.Windows``); the per-layer figures are the best round, as
    measured. Each call to :meth:`run` draws a fresh fault seed: a
    faulty batch runs until its slowest walk ends, so one fault pattern
    would set every round's cost.
    """

    def __init__(self, rng, walks: int, items: int) -> None:
        self.rng = rng
        self.targets = rng.integers(0, items, walks)
        # Tune-in points as cycle fractions: replans change the cycle length.
        self.phase = rng.random(walks)
        self.policy = RecoveryPolicy()
        self.faults = None
        self.rounds: list[tuple[float, float, float, float, float]] = []
        self.dense = None

    def run(self, program, seconds: float) -> None:
        """At least one round on ``program``, more until ``seconds`` pass."""
        tune_slots = 1 + (self.phase * program.cycle_length).astype(np.int64)
        self.faults = FaultConfig(loss=LOSS, corruption=CORRUPTION,
                                  seed=int(self.rng.integers(2**31)))
        end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.dense = compile_dense(program)
            t1 = time.perf_counter()
            run_batch(self.dense, self.targets, tune_slots)
            t2 = time.perf_counter()
            run_batch(self.dense, self.targets, tune_slots,
                      faults=self.faults, recovery=self.policy)
            t3 = time.perf_counter()
            self.rounds.append((t1 - t0, t2 - t1, t3 - t2, t3 - t0, t0))
            if t3 >= end:
                return

    def metrics(self, host) -> dict:
        walks = len(self.targets)
        return {
            "sim_walks_per_s": statistics.median(
                2 * walks / host.scaled(r[3], r[4], r[4] + r[3]) for r in self.rounds),
            "engine.dense.compile_s": min(r[0] for r in self.rounds),
            "engine.batch.lossless_walks_per_s": walks / min(r[1] for r in self.rounds),
            "engine.batch.faulty_walks_per_s": walks / min(r[2] for r in self.rounds),
        }


def regime_of(result) -> str:
    """The ``meta`` regime that produced a plan (its method if not ``meta``)."""
    decision = result.stats.get("meta", {})
    return REGIMES.get(decision.get("method", result.method), "sorting")


def plan_stats(results, plan_seconds: dict[str, float] | None = None) -> dict:
    """Planner per-layer metrics over the plans a run made.

    ``plan_seconds`` maps each regime to the plan time spent in it; the
    shares show whether one regime dominates the mix.
    """
    counts = {name: 0 for name in REGIMES.values()}
    nodes = 0
    search_s = 0.0
    fallbacks = 0
    ptas_ratios = []
    for result in results:
        regime = regime_of(result)
        counts[regime] += 1
        fallbacks += bool(result.stats.get("meta", {}).get("fell_back"))
        if "nodes_expanded" in result.stats:
            nodes += result.stats["nodes_expanded"]
            search_s += result.stats["seconds"]
        if regime == "ptas":
            ptas_ratios.append(result.cost / result.stats["lower_bound"])
    metrics = {f"planners.method.{name}": count for name, count in counts.items()}
    metrics["core.search.nodes_expanded"] = nodes
    metrics["core.search.expanded_per_s"] = nodes / search_s if search_s else 0.0
    metrics["planners.meta_fallbacks"] = fallbacks
    metrics["approx.ptas.ratio_to_lower"] = (
        sum(ptas_ratios) / len(ptas_ratios) if ptas_ratios else 0.0
    )
    plan_seconds = plan_seconds or {}
    total = sum(plan_seconds.values())
    shares = {name: plan_seconds.get(name, 0.0) / total if total else 0.0
              for name in REGIMES.values()}
    for name, share in shares.items():
        metrics[f"planners.plan_share.{name}"] = share
    metrics["planners.max_regime_share"] = max(shares.values())
    return metrics


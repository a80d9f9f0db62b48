"""One bench harness: a registry of suites, one runner, one gate.

``repro bench [SUITE ...] [--record]`` (``make bench-all``) runs each
selected suite of :data:`SUITES`, all of them by default. A
:class:`Suite` is a name, one fixed config, a ``run(config)`` and the
metrics it declares. ``run`` returns a dict with flat ``metrics`` and
``checks``, optionally ``timings`` (:class:`repro.perf.Timing` dicts
from :func:`repro.perf.measure`) and a free-form ``detail`` block. For
every suite the runner then

1. writes ``BENCH_<suite>.json`` (:func:`write_record`, the one writer
   of a bench record): the envelope (``schema_version``, ``suite``,
   ``rev``, ``timestamp`` — passed in by the caller, never sampled
   here), the config and the run's result;
2. prints every metric against its baseline, and the checks;
3. gates the run against ``benchmarks/history/<suite>.jsonl``.

**The gate.** The baseline is the earliest history entry recorded at
the suite's config fingerprint, so a run is only ever compared with one
measured at the same scale. A failed check regresses first. Then every
declared metric, in declaration order: ``quality`` metrics are
deterministic functions of the seeds (slot-denominated latencies, node
counts, bytes) and regress when they move worse-ward by more than
:data:`TOLERANCE`, or go missing; ``timing`` metrics are machine
clocks, tracked in every entry but not gated. ``--record`` appends the
run to the history, which seeds the baseline of a config that has none.
Exit codes: 0 clean, 1 regression, 2 no baseline to gate against or an
unreadable history.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .analysis.bench import run_paper_bench
from .approx.bench import run_frontier_bench
from .cluster.harness import run_cluster_bench
from .core.bench import run_search_bench
from .engine.bench import run_engine_bench
from .net.harness import run_loadtest_bench
from .sched.harness import run_store_bench
from .server.bench import run_server_bench

__all__ = [
    "QUALITY",
    "TIMING",
    "LOWER",
    "HIGHER",
    "TOLERANCE",
    "HISTORY_DIR",
    "Metric",
    "Suite",
    "SUITES",
    "register",
    "write_record",
    "history_entry",
    "load_history",
    "find_baseline",
    "Reading",
    "Verdict",
    "judge",
    "run_suites",
]

QUALITY = "quality"
TIMING = "timing"
LOWER = "lower"
HIGHER = "higher"

#: Relative worse-ward drift a quality metric may show before it regresses.
TOLERANCE = 0.15

#: Where the per-suite history files live, relative to the working directory.
HISTORY_DIR = os.path.join("benchmarks", "history")

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Metric:
    """One metric a suite reports: which way is better, and its kind."""

    name: str
    better: str = LOWER
    kind: str = QUALITY


@dataclass(frozen=True)
class Suite:
    """A named bench workload at one fixed config."""

    name: str
    config: Mapping
    run: Callable[[dict], dict]
    metrics: tuple[Metric, ...]

    @property
    def fingerprint(self) -> dict:
        """The config as history entries record it, JSON-normalised."""
        return json.loads(json.dumps({self.name: dict(self.config)}))


SUITES: dict[str, Suite] = {}


def register(suite: Suite) -> Suite:
    """Add ``suite`` to :data:`SUITES`; a name may be registered once."""
    if suite.name in SUITES:
        raise ValueError(f"bench suite {suite.name!r} is already registered")
    SUITES[suite.name] = suite
    return suite


def _quality(*names: str) -> tuple[Metric, ...]:
    return tuple(Metric(name) for name in names)


def _timing(*names: str, better: str = LOWER) -> tuple[Metric, ...]:
    return tuple(Metric(name, better, TIMING) for name in names)


# Each config is the scale its suite's committed baseline was seeded at;
# editing one leaves the suite without a baseline until --record.
register(Suite(
    "search-overhaul",
    {"repeats": 1},
    lambda config: run_search_bench(**config),
    _quality("best_first_nodes_expanded", "a2_best_first_nodes_expanded")
    + _timing("best_first_seconds", "dfs_bnb_seconds")
    + _timing("speedup", better=HIGHER),
))
register(Suite(
    "server-faults",
    {
        "items": 12, "channels": 2, "cycles": 30,
        "mean_requests_per_cycle": 30.0, "seed": 2000,
        "planner": "budgeted",
    },
    lambda config: run_server_bench(**config),
    _quality("lossless_mean_access", "lossy_mean_access", "degradation_slots"),
))
register(Suite(
    "net-loadtest",
    {
        "items": 24, "channels": 3, "fanout": 3, "planner": "sorting",
        "tuners": 50, "arrival_rate": 5000.0, "max_open": 256,
        "slot_duration": 0.0, "loss": 0.0, "corruption": 0.0,
        "check_parity": True, "seed": 2000,
    },
    lambda config: run_loadtest_bench(**config),
    _quality("mean_access_time", "mean_tuning_time", "access_p99")
    + _timing("walks_per_second", better=HIGHER),
))
register(Suite(
    "engine-batch",
    {
        "items": 24, "channels": 3, "fanout": 3, "planner": "sorting",
        "walks": 200_000, "sample": 2000, "loss": 0.05,
        "corruption": 0.01, "seed": 2000, "repeats": 3,
        "catalog_items": 1000, "catalog_walks": 50_000,
        "catalog_sample": 500,
    },
    lambda config: run_engine_bench(**config),
    _quality(
        "mean_access_time", "mean_tuning_time", "faulty_mean_access_time",
        "catalog_faulty_mean_access_time",
    )
    + _timing(
        "batch_walks_per_second", "faulty_walks_per_second",
        "speedup_vs_scalar", "catalog_faulty_walks_per_second",
        better=HIGHER,
    )
    + _timing("catalog_compile_seconds"),
))
register(Suite(
    "approx-frontier",
    {
        "sizes": [1000, 10000], "channels": 4, "fanout": 3,
        "theta": 0.95, "seed": 2000,
    },
    lambda config: run_frontier_bench(**config),
    _quality(
        "ptas_ratio_small", "ptas_ratio_large", "ptas_bound_slack_large",
        "sorting_ratio_large", "meta_ratio_small", "meta_ratio_large",
    )
    + _timing(
        "ptas_plan_seconds_large", "sorting_plan_seconds_large",
        "meta_plan_seconds_large",
    ),
))
register(Suite(
    "sched-bench",
    {
        "versions": 40, "items": 24, "channels": 3, "fanout": 3,
        "seed": 2000,
    },
    lambda config: run_store_bench(**config),
    _quality("store_bytes_per_version", "store_bytes_total")
    + _timing("publish_ms_mean", "load_ms_mean", "rollback_ms"),
))
register(Suite(
    "cluster-loadtest",
    {
        "items": 32, "channels": 3, "fanout": 3, "planner": "meta",
        "partitioner": "hash", "shard_counts": [1, 2, 4], "tuners": 100,
        "refit_rounds": 0, "arrival_rate": 0.0, "max_open": 256,
        "slot_duration": 0.02, "check_parity": True, "seed": 2000,
    },
    lambda config: run_cluster_bench(**config),
    _quality(
        "mean_access_time_1shard", "mean_access_time_2shards",
        "mean_access_time_4shards",
    )
    + _timing(
        "walks_per_second_1shard", "speedup_2shards", "speedup_4shards",
        better=HIGHER,
    ),
))
register(Suite(
    "paper",
    {},
    lambda config: run_paper_bench(),
    _quality(
        *(f"table1_p124_m{m}" for m in (2, 3, 4, 5)),
        *(f"fig14_gap_percent_sigma{sigma}" for sigma in (10, 20, 30, 40)),
        *(
            f"heuristics_{name}_gap_percent_{workload}"
            for workload in ("zipf", "normal")
            for name in ("sorting", "polished", "combine", "partition")
        ),
        "channels_optimal_wait_k1", "channels_optimal_wait_k2",
        "channels_optimal_wait_k3", "channels_sv96_gap_percent",
        "a1_adjacent_nodes_expanded", "a1_packed_nodes_expanded",
        *(
            f"client_{structure}_{field}"
            for structure in ("alphabetic", "balanced", "huffman")
            for field in ("access", "tuning")
        ),
        "a7_mean_greedy_gap_percent",
    ),
))


# -- records and history ------------------------------------------------------

def write_record(
    suite: Suite,
    result: dict,
    *,
    rev: str | None = None,
    timestamp: str | None = None,
    out_dir: str = ".",
) -> dict:
    """Write ``BENCH_<suite>.json`` in the envelope; return the document."""
    declared = {metric.name for metric in suite.metrics}
    undeclared = sorted(set(result["metrics"]) - declared)
    if undeclared:
        raise ValueError(
            f"suite {suite.name!r} reported undeclared metric(s): "
            f"{', '.join(undeclared)}"
        )
    document = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite.name,
        "rev": rev,
        "timestamp": timestamp,
        "config": dict(suite.config),
        "metrics": result["metrics"],
        "checks": {name: bool(ok) for name, ok in result["checks"].items()},
        "timings": result.get("timings", {}),
        "detail": result.get("detail", {}),
    }
    with open(os.path.join(out_dir, f"BENCH_{suite.name}.json"), "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


def history_entry(suite: Suite, document: dict) -> dict:
    """The history line of one written record: names qualified by suite."""
    prefix = f"{suite.name}."
    return {
        "schema_version": SCHEMA_VERSION,
        "rev": document["rev"],
        "timestamp": document["timestamp"],
        "fingerprint": suite.fingerprint,
        "metrics": {
            prefix + name: float(value)
            for name, value in document["metrics"].items()
        },
        "checks": {
            prefix + name: ok for name, ok in sorted(document["checks"].items())
        },
        "timings": {
            prefix + name: timing
            for name, timing in document["timings"].items()
        },
    }


def load_history(path: str) -> list[dict]:
    """Read a history file; entries in file (chronological) order."""
    entries: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            entry = json.loads(line)
            version = entry.get("schema_version")
            if version != SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{line_number}: history schema_version "
                    f"{version!r}; this tooling speaks {SCHEMA_VERSION}"
                )
            entries.append(entry)
    return entries


def find_baseline(suite: Suite, history: list[dict]) -> dict | None:
    """The earliest entry recorded at the suite's config fingerprint."""
    fingerprint = suite.fingerprint
    for entry in history:
        if entry.get("fingerprint") == fingerprint:
            return entry
    return None


# -- the gate -------------------------------------------------------------------

@dataclass(frozen=True)
class Reading:
    """One metric's run-vs-baseline judgement."""

    metric: Metric
    name: str
    baseline: float | None
    value: float | None
    delta: float | None  # signed relative change, run vs baseline
    regressed: bool
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    """Everything :func:`judge` decided, in gate order."""

    readings: list[Reading] = field(default_factory=list)
    failed_checks: list[str] = field(default_factory=list)

    @property
    def first_regressed(self) -> str | None:
        """Name of the first regression — checks gate before metrics."""
        if self.failed_checks:
            return f"checks.{self.failed_checks[0]}"
        for reading in self.readings:
            if reading.regressed:
                return reading.name
        return None

    @property
    def ok(self) -> bool:
        return self.first_regressed is None


def judge(suite: Suite, baseline: dict | None, entry: dict) -> Verdict:
    """Gate one history ``entry`` against ``baseline`` (None: checks only)."""
    failed = sorted(name for name, ok in entry["checks"].items() if not ok)
    base_metrics = (baseline or {}).get("metrics", {})
    readings: list[Reading] = []
    for metric in suite.metrics:
        name = f"{suite.name}.{metric.name}"
        base = base_metrics.get(name)
        value = entry["metrics"].get(name)
        if value is None:
            missing = base is not None and metric.kind == QUALITY
            readings.append(
                Reading(metric, name, base, None, None, missing, "missing")
            )
        elif base is None:
            readings.append(
                Reading(metric, name, None, value, None, False, "no baseline")
            )
        else:
            if base == 0.0:
                delta = 0.0 if value == 0.0 else float("inf")
            else:
                delta = (value - base) / abs(base)
            worse = delta if metric.better == LOWER else -delta
            regressed = metric.kind == QUALITY and worse > TOLERANCE
            readings.append(
                Reading(metric, name, base, value, delta, regressed)
            )
    return Verdict(readings, failed)


def _format(suite: Suite, document: dict, verdict: Verdict, baseline) -> str:
    base_rev = (baseline or {}).get("rev") or "?"
    width = max(32, *(len(metric.name) for metric in suite.metrics))
    lines = [
        f"== {suite.name} (rev {document['rev'] or '?'} vs baseline rev "
        f"{base_rev}; quality gated at {TOLERANCE:.0%}, timing tracked)",
        f"{'metric':<{width}} {'value':>12} {'baseline':>12} {'delta':>8}  "
        "verdict",
    ]
    for r in verdict.readings:
        value = "-" if r.value is None else f"{r.value:.4g}"
        base = "-" if r.baseline is None else f"{r.baseline:.4g}"
        delta = "-" if r.delta is None else f"{r.delta:+.1%}"
        if r.regressed:
            verdict_text = "REGRESSED"
        elif r.note:
            verdict_text = r.note
        else:
            verdict_text = "ok" if r.metric.kind == QUALITY else "tracked"
        lines.append(
            f"{r.metric.name:<{width}} {value:>12} {base:>12} {delta:>8}  "
            f"{verdict_text}"
        )
    for name, timing in document["timings"].items():
        lines.append(
            f"timing {name}: min {timing['min']:.4g}s, median "
            f"{timing['median']:.4g}s, IQR {timing['iqr']:.2g}s "
            f"({timing['repeats']} samples, {timing['calls']} calls)"
        )
    lines.append(
        "checks: "
        + " ".join(
            f"{name}={'ok' if ok else 'FAILED'}"
            for name, ok in document["checks"].items()
        )
    )
    first = verdict.first_regressed
    lines.append(
        f"result: ok — nothing regressed in {suite.name}"
        if first is None
        else f"result: REGRESSION — first regressed metric: {first}"
    )
    return "\n".join(lines)


def _run_one(
    suite: Suite,
    *,
    record: bool,
    rev: str | None,
    timestamp: str | None,
    history_dir: str,
    out_dir: str,
) -> int:
    history_path = os.path.join(history_dir, f"{suite.name}.jsonl")
    try:
        history = (
            load_history(history_path) if os.path.exists(history_path) else []
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot read history: {error}", file=sys.stderr)
        return 2
    result = suite.run(dict(suite.config))
    document = write_record(
        suite, result, rev=rev, timestamp=timestamp, out_dir=out_dir
    )
    entry = history_entry(suite, document)
    baseline = find_baseline(suite, history)
    verdict = judge(suite, baseline, entry)
    print(_format(suite, document, verdict, baseline))
    print(f"record written to {os.path.join(out_dir, f'BENCH_{suite.name}.json')}")
    if record:
        os.makedirs(history_dir, exist_ok=True)
        with open(history_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        print(
            f"run appended to {history_path}"
            + ("" if baseline else " (baseline seeded)")
        )
    elif baseline is None:
        print(
            f"error: {history_path} has no baseline at this config; "
            "seed one with --record",
            file=sys.stderr,
        )
        return 2
    return 0 if verdict.ok else 1


def run_suites(
    names: list[str] | None = None,
    *,
    record: bool = False,
    rev: str | None = None,
    timestamp: str | None = None,
    history_dir: str = HISTORY_DIR,
    out_dir: str = ".",
) -> int:
    """Run, write, print and gate each named suite (default: all).

    Every suite runs even after one fails; the exit code is the worst.
    """
    code = 0
    for name in names or list(SUITES):
        code = max(
            code,
            _run_one(
                SUITES[name],
                record=record,
                rev=rev,
                timestamp=timestamp,
                history_dir=history_dir,
                out_dir=out_dir,
            ),
        )
    return code

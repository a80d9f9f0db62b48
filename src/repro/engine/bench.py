"""The ``engine-batch`` bench suite: the batch walk engine vs the scalar walks.

``repro bench engine-batch`` builds the
standard demo program (the same Zipf catalog ``loadtest`` airs), draws a
seeded request trace, and measures three regimes:

* **scalar** — :func:`~repro.client.protocol.object_walk` over a sample
  of the trace (the per-object baseline the engine replaces);
* **batch** — :func:`repro.engine.run_batch` over the full trace,
  loss-free;
* **faulty** — the batch recovery path under a seeded
  :class:`~repro.faults.FaultConfig`;
* **catalog** — the simulator at catalog scale: ``compile_dense`` and
  the faulty batch on a ``catalog_items``-item plan (air-churn's
  1,000-item ``meta`` plan by default, cycle 537, so the default
  policy's deadline is 4,296 slots and the fault streams span several
  blocks), under metric names of their own.

Correctness is part of the bench, not a separate step: the suite's
checks carry the differential gates (batch bit-identical
to the scalar walks on every compared walk, lossless and faulty) next
to the throughput gate — ``batch_walks_per_second`` must beat the
rev-d77d042 fleet envelope (~1.16k walks/sec) by ≥ 50×, the ROADMAP's
"raw speed" target. Every regime is timed by
:func:`repro.perf.measure` over ``repeats`` samples; the throughputs
use its ``min``, so they stay comparable with the best-of-N figures
recorded before it. Every slot-denominated metric is a pure function
of the seeds, which is what lets the bench gate this suite.
"""

from __future__ import annotations

import numpy as np

from ..client.protocol import RecoveryPolicy, object_walk, recovering_walk
from ..faults import FaultConfig, FaultInjector
from ..perf import measure
from .dense import compile_dense
from .batch import run_batch

__all__ = [
    "ENVELOPE_WALKS_PER_SECOND",
    "SPEEDUP_TARGET",
    "run_engine_bench",
]

#: The 1k-tuner fleet throughput recorded in BENCH_all.json at rev
#: d77d042 — the "far from hardware limits" number the ROADMAP's raw-
#: speed item measures against.
ENVELOPE_WALKS_PER_SECOND = 1160.0

#: The ROADMAP target: the loss-free batch path must clear 50× the envelope.
SPEEDUP_TARGET = 50.0


def _draw_trace(program, walks: int, seed: int):
    """Seeded (target id, tune slot) draws — the simulator's workload model."""
    rng = np.random.default_rng(seed)
    targets = program.schedule.tree.data_nodes()
    weights = np.array([t.weight for t in targets], dtype=float)
    if weights.sum() == 0:
        probabilities = np.full(len(targets), 1.0 / len(targets))
    else:
        probabilities = weights / weights.sum()
    ids = rng.choice(len(targets), size=walks, p=probabilities)
    slots = rng.integers(1, program.cycle_length + 1, size=walks)
    return targets, ids.astype(np.int64), slots.astype(np.int64)


def _faulty_matches(program, dense, targets, ids, slots, faults, policy):
    """Whether the faulty batch equals ``recovering_walk`` on every walk."""
    injector = FaultInjector(faults)
    return run_batch(
        dense, ids, slots, faults=faults, recovery=policy
    ).to_records() == [
        recovering_walk(
            program, targets[int(d)], int(s), faults=injector, policy=policy,
        )
        for d, s in zip(ids, slots)
    ]


def run_engine_bench(
    *,
    items: int = 24,
    channels: int = 3,
    fanout: int = 3,
    planner: str = "sorting",
    walks: int = 200_000,
    sample: int = 2_000,
    loss: float = 0.05,
    corruption: float = 0.01,
    seed: int = 2000,
    repeats: int = 3,
    catalog_items: int = 1000,
    catalog_walks: int = 50_000,
    catalog_sample: int = 500,
) -> dict:
    """Run the engine suite; return its metrics, checks and detail.

    ``sample`` bounds the scalar-walk comparisons (timing baseline and
    per-walk differential) — the scalar side is exactly what the engine
    exists to avoid running 10⁵ times — and ``catalog_sample`` bounds
    them at catalog scale. The batch paths always run the full
    ``walks``- and ``catalog_walks``-long traces.
    """
    if walks < 1 or catalog_walks < 1 or repeats < 1:
        raise ValueError("walks, catalog_walks and repeats must be >= 1")
    sample = min(sample, walks)
    from ..net.harness import build_demo_program

    program = build_demo_program(
        items=items, channels=channels, fanout=fanout, planner=planner,
        seed=seed,
    )
    dense = compile_dense(program)
    targets, ids, slots = _draw_trace(program, walks, seed)
    fault_config = FaultConfig(loss=loss, corruption=corruption, seed=seed)
    policy = RecoveryPolicy()

    # -- throughput --------------------------------------------------------
    batch_result, batch = measure(
        lambda: run_batch(dense, ids, slots), repeats=repeats
    )
    faulty_result, faulty = measure(
        lambda: run_batch(
            dense, ids, slots, faults=fault_config, recovery=policy
        ),
        repeats=repeats,
    )
    sample_ids = ids[:sample]
    sample_slots = slots[:sample]
    scalar_records, scalar = measure(
        lambda: [
            object_walk(program, targets[int(d)], int(s))
            for d, s in zip(sample_ids, sample_slots)
        ],
        repeats=repeats,
    )

    # -- differential gates (part of the bench, not an afterthought) -------
    batch_sample = run_batch(dense, sample_ids, sample_slots).to_records()
    differential_exact = batch_sample == scalar_records
    differential_faulty_exact = _faulty_matches(
        program, dense, targets, ids[:sample], slots[:sample],
        fault_config, policy,
    )

    # -- catalog scale -----------------------------------------------------
    catalog = build_demo_program(
        items=catalog_items, channels=channels, fanout=fanout,
        planner="meta", seed=seed,
    )
    catalog_dense, catalog_compile = measure(
        lambda: compile_dense(catalog), repeats=repeats
    )
    catalog_targets, catalog_ids, catalog_slots = _draw_trace(
        catalog, catalog_walks, seed
    )
    catalog_result, catalog_faulty = measure(
        lambda: run_batch(
            catalog_dense, catalog_ids, catalog_slots,
            faults=fault_config, recovery=policy,
        ),
        repeats=repeats,
    )
    catalog_sample = min(catalog_sample, catalog_walks)
    catalog_differential = _faulty_matches(
        catalog, catalog_dense, catalog_targets,
        catalog_ids[:catalog_sample], catalog_slots[:catalog_sample],
        fault_config, policy,
    )

    # -- metrics ---------------------------------------------------------
    summary = batch_result.summarise()
    faulty_summary = faulty_result.summarise()
    batch_wps = walks / batch.min
    faulty_wps = walks / faulty.min
    scalar_wps = sample / scalar.min
    catalog_summary = catalog_result.summarise()
    return {
        "metrics": {
            "mean_access_time": summary.mean_access_time,
            "mean_tuning_time": summary.mean_tuning_time,
            "faulty_mean_access_time": faulty_summary.mean_access_time,
            "batch_walks_per_second": batch_wps,
            "faulty_walks_per_second": faulty_wps,
            "speedup_vs_scalar": batch_wps / scalar_wps,
            "catalog_faulty_mean_access_time": (
                catalog_summary.mean_access_time
            ),
            "catalog_faulty_walks_per_second": (
                catalog_walks / catalog_faulty.min
            ),
            "catalog_compile_seconds": catalog_compile.min,
        },
        "checks": {
            "differential_exact": differential_exact,
            "differential_faulty_exact": differential_faulty_exact,
            "catalog_differential_faulty_exact": catalog_differential,
            "batch_speedup_50x": (
                batch_wps >= SPEEDUP_TARGET * ENVELOPE_WALKS_PER_SECOND
            ),
        },
        "timings": {
            "batch_seconds": batch.to_dict(),
            "faulty_seconds": faulty.to_dict(),
            "scalar_seconds": scalar.to_dict(),
            "catalog_compile_seconds": catalog_compile.to_dict(),
            "catalog_faulty_seconds": catalog_faulty.to_dict(),
        },
        "detail": {
            "scalar_walks": sample,
            "scalar_walks_per_second": scalar_wps,
            "speedup_vs_envelope": batch_wps / ENVELOPE_WALKS_PER_SECOND,
            "faulty_abandoned": faulty_summary.abandoned,
            "faulty_lost_buckets": faulty_summary.lost_buckets,
            "faulty_corrupt_buckets": faulty_summary.corrupt_buckets,
            "faulty_retries": faulty_summary.retries,
            "catalog_cycle": catalog_dense.cycle_length,
            "catalog_deadline": policy.max_cycles * catalog_dense.cycle_length,
            "catalog_scalar_walks": catalog_sample,
            "catalog_faulty_abandoned": catalog_summary.abandoned,
            "catalog_faulty_retries": catalog_summary.retries,
        },
    }

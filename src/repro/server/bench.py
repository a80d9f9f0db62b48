"""The ``server-faults`` bench suite: the serving loop under perfect and lossy air.

``repro bench server-faults`` runs the full stack — estimator, registry
planner, pointer compilation, client walks — through three fixed,
seeded scenarios:

* **lossless** — the plain reliable-channel server, the historical
  baseline;
* **lossless-faultpath** — the *same* run routed through the fault
  injector with ``loss=0``; every per-cycle measurement must be
  bit-identical to the baseline (the robustness layer's differential
  invariant, re-checked here at server granularity);
* **lossy** — Gilbert–Elliott burst losses plus payload corruption,
  exercising retries, wasted probes and abandonment accounting.

The suite's checks: the differential must hold exactly, the lossy run
must not beat the lossless mean access time (loss can't help), and the
lossy run must actually observe faults. Each scenario is timed by
:func:`repro.perf.measure`; its requests/second rides in the detail
block, untracked.
"""

from __future__ import annotations

import numpy as np

from ..client.protocol import RecoveryPolicy
from ..faults import BurstConfig, FaultConfig
from ..perf import measure
from .loop import BroadcastServer, ServerReport

__all__ = ["run_server_bench"]


def _cycle_signature(report: ServerReport) -> list[tuple]:
    """The per-cycle measurements the differential must preserve."""
    return [
        (
            stats.cycle,
            stats.requests,
            stats.mean_access_time,
            stats.mean_tuning_time,
            stats.analytic_access_time,
            stats.replanned,
        )
        for stats in report.cycles
    ]


def _record(name: str, report: ServerReport, seconds: float) -> dict:
    return {
        "scenario": name,
        "cycles": len(report.cycles),
        "requests": report.requests_served,
        "mean_access_time": report.mean_access_time,
        "abandoned": report.abandoned,
        "lost_buckets": report.lost_buckets,
        "corrupt_buckets": report.corrupt_buckets,
        "retries": report.retries,
        "seconds": seconds,
        "requests_per_second": report.requests_served / seconds,
    }


def run_server_bench(
    *,
    items: int = 12,
    channels: int = 2,
    cycles: int = 30,
    mean_requests_per_cycle: float = 30.0,
    seed: int = 2000,
    planner: str = "budgeted",
) -> dict:
    """Run the three scenarios; return the suite's metrics and checks."""
    labels = [f"K{index:02d}" for index in range(items)]

    def scenario(faults: FaultConfig | None, recovery: RecoveryPolicy | None):
        def run() -> ServerReport:
            server = BroadcastServer(
                labels,
                channels=channels,
                replan_every=10,
                planner=planner,
                faults=faults,
                recovery=recovery,
            )
            return server.run(
                np.random.default_rng(seed),
                cycles=cycles,
                mean_requests_per_cycle=mean_requests_per_cycle,
            )

        report, timing = measure(run)
        return report, timing.min

    lossless, lossless_seconds = scenario(None, None)
    faultpath, faultpath_seconds = scenario(FaultConfig(loss=0.0, seed=7), None)
    lossy, lossy_seconds = scenario(
        FaultConfig(loss=0.12, corruption=0.02, burst=BurstConfig(), seed=7),
        RecoveryPolicy(mode="retry-parent", max_cycles=6),
    )
    differential_ok = _cycle_signature(lossless) == _cycle_signature(faultpath)
    return {
        "metrics": {
            "lossless_mean_access": lossless.mean_access_time,
            "lossy_mean_access": lossy.mean_access_time,
            "degradation_slots": (
                lossy.mean_access_time - lossless.mean_access_time
            ),
        },
        "checks": {
            "p0_differential": differential_ok,
            "loss_does_not_help": (
                lossy.mean_access_time >= lossless.mean_access_time
            ),
            "faults_observed": lossy.lost_buckets > 0 and lossy.retries > 0,
        },
        "detail": {
            "scenarios": [
                _record("lossless", lossless, lossless_seconds),
                _record("lossless-faultpath", faultpath, faultpath_seconds),
                _record("lossy-burst", lossy, lossy_seconds),
            ],
        },
    }

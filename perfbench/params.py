"""Fixed workload parameters. The seed only draws inputs from these.

Rates and sizes are constants on purpose: a rate derived per run would
hand a faster program a harder workload. ``NOTES.md`` says why each
value was chosen.
"""

#: Share of ``--seconds`` each measured phase gets.
AIR_PHASES = {"closed": 0.4, "open": 0.4, "sim": 0.2}
REPLAN_PHASES = {"replan": 0.7, "walks": 0.2, "sim": 0.1}

#: Windows a timed phase is split into; see ``common.Windows``.
WINDOWS = 16

#: Air and batch-engine faults used wherever a workload injects them.
LOSS, CORRUPTION = 0.05, 0.01
#: Recovery deadline of live air walks: cutover restarts must never be
#: what abandons a walk. The batch simulation keeps the default policy.
MAX_CYCLES = 64

#: Seed of every fixed starting catalog (the demo catalog's seed).
CATALOG_SEED = 2000

#: Batch-vs-scalar sample size checked on every workload.
CHECK_WALKS = 2000

AIR_STEADY = {
    # build_demo_plan defaults: 24 items, Zipf(0.95), 3 channels, fanout 3,
    # sorting, catalog seed 2000.
    "connections": 2,
    # Walks per second: a quarter of the closed-loop capacity measured
    # on the reference host at its fast speed, a third at its slow one
    # (see NOTES.md).
    "offered_rate": 500.0,
    "setup_repeats": 8,
    "trace_walks": 40_000,
    "sim_walks": 50_000,
}

AIR_CHURN = {
    "items": 1000,
    "channels": 3,
    "fanout": 3,
    "theta": 0.95,
    "replan_theta": 0.35,
    "connections": 2,
    # Stations the walks are spread over: timelines air the replan and
    # the rollback on lossless air, controls the baseline plan alone
    # under independently seeded faults.
    "timelines": 1,
    # One fault pattern decides the fate of nearly every walk on a
    # station, so the slot means need several control stations.
    "controls": 16,
    # Every second walk goes to a control station; those walks must
    # equal recovering_walk under the control station's faults.
    "control_every": 2,
    # The cutover under loss, off the socket: a fixed number of walks
    # over as many independently seeded lossy timelines.
    "defect_stations": 16,
    "defect_walks": 800,
    "offered_rate": 200.0,
    "setup_repeats": 8,
    "trace_walks": 20_000,
    "sim_walks": 20_000,
}

REPLAN_STREAM = {
    "channels": 3,
    "fanout": 3,
    # (catalog count, items, Zipf theta): one group per meta regime.
    "catalogs": [
        (48, 8, 0.95),     # exact best-first search (<= 10 items)
        (6, 15, 0.95),     # budgeted dfs-bnb (11..16 items)
        (1, 300, 1.2),     # shrink-combine (skewed mid-size)
        (1, 800, 0.35),    # sorting (flat mid-size)
        (1, 2500, 0.95),   # ptas (>= 2,000 items)
    ],
    "drift_sigma": 0.3,
    # Nominal seconds per epoch on a 2-core host; fixes the epoch count.
    "epoch_s": 1.2,
    "min_epochs": 2,
    "setup_repeats": 8,
    "walks_per_window": 40,
    "sim_walks": 50_000,
}

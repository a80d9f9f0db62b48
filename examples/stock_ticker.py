#!/usr/bin/env python3
"""Stock ticker broadcast: alphabetic index, multiple channels, clients.

The scenario the paper's introduction motivates: a wireless cell pushes
stock quotes to mobile subscribers. Popular tickers are requested far
more often (Zipf skew), clients look quotes up *by symbol* — so the
index must be a search tree — and battery life matters, so tuning time
counts as much as access time.

Pipeline demonstrated here:

1. build a skewed but key-ordered Hu–Tucker/[SV96] index tree over the
   ticker catalog;
2. find the optimal index-and-data allocation on 1..3 channels (§3);
3. compare against the [SV96] level-per-channel layout and the no-index
   broadcast floor;
4. compile pointers and drive simulated clients through the broadcast,
   confirming the analytic numbers bucket by bucket.

Run:  python examples/stock_ticker.py
"""

from __future__ import annotations

import numpy as np

from repro import compile_program, optimal_alphabetic_tree, solve
from repro.analysis.reporting import format_table
from repro.baselines.flat import flat_broadcast_wait
from repro.baselines.level_allocation import (
    sv96_channels_needed,
    sv96_level_schedule,
)
from repro.broadcast.metrics import expected_access_time, expected_tuning_time
from repro.client.simulator import simulate_workload
from repro.workloads.catalogs import stock_catalog


def main() -> None:
    rng = np.random.default_rng(42)
    items = stock_catalog(rng, count=14, theta=1.1)

    print("Ticker catalog (weight = requests per cycle):")
    for item in sorted(items, key=lambda i: -i.weight)[:5]:
        print(f"  {item.key:<6} {item.weight:7.2f}")
    print(f"  ... and {len(items) - 5} more\n")

    tree = optimal_alphabetic_tree(
        [i.label for i in items],
        [i.weight for i in items],
        fanout=2,
        keys=[i.key for i in items],
    )
    print("Alphabetic (Hu-Tucker) index tree - popular symbols sit high,")
    print("but an in-order walk still visits symbols in key order:\n")
    print(tree.to_ascii())

    # ------------------------------------------------------------------
    # Optimal allocation across channel counts, with baselines.
    # ------------------------------------------------------------------
    rows = []
    for channels in (1, 2, 3):
        result = solve(tree, channels=channels)
        rows.append(
            [
                f"optimal, k={channels}",
                channels,
                result.cost,
                expected_access_time(result.schedule),
                expected_tuning_time(result.schedule),
            ]
        )
    sv96 = sv96_level_schedule(tree)
    rows.append(
        [
            f"[SV96] levels, k={sv96_channels_needed(tree)} (fixed)",
            sv96.channels,
            sv96.data_wait(),
            expected_access_time(sv96),
            expected_tuning_time(sv96),
        ]
    )
    rows.append(
        ["no index (floor), k=1", 1, flat_broadcast_wait(tree), None, None]
    )
    print()
    print(
        format_table(
            ["scheme", "channels", "data wait", "access time", "tuning time"],
            rows,
            title="Allocation schemes on the ticker catalog",
        )
    )

    # ------------------------------------------------------------------
    # Put clients on the air.
    # ------------------------------------------------------------------
    best = solve(tree, channels=2)
    program = compile_program(best.schedule)
    summary = simulate_workload(program, rng=np.random.default_rng(7), requests=2000)
    print("\n2000 simulated client requests against the 2-channel optimum:")
    print(f"  mean access time  = {summary.mean_access_time:7.2f} slots "
          f"(analytic {expected_access_time(best.schedule):.2f})")
    print(f"  mean tuning time  = {summary.mean_tuning_time:7.2f} buckets "
          f"(analytic {expected_tuning_time(best.schedule):.2f})")
    print(f"  mean data wait    = {summary.mean_data_wait:7.2f} slots "
          f"(formula (1): {best.cost:.2f})")
    print(f"  channel switches  = {summary.mean_channel_switches:7.2f} per request")


if __name__ == "__main__":
    main()

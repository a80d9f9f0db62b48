#!/usr/bin/env python3
"""Large catalogs: where the §4.2 heuristics take over.

The exact search is exponential; beyond a few dozen data items it stops
being an option (the paper's Table 1 makes the blow-up explicit). This
example broadcasts a 120-city weather catalog:

* *Index Tree Sorting* allocates the whole catalog in linear time, for
  any number of channels;
* *Index Tree Shrinking* (node combination and tree partitioning) buys
  back exactness on bounded sub-problems;
* a truncated exact search (state budget + fallback) shows how a
  production scheduler would combine them.

Run:  python examples/large_catalog.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import optimal_alphabetic_tree
from repro.analysis.reporting import format_table
from repro.baselines.flat import flat_broadcast_wait
from repro.core.optimal import solve
from repro.exceptions import SearchBudgetExceeded
from repro.heuristics.channel_allocation import sorting_schedule
from repro.heuristics.shrinking import combine_and_solve, partition_and_solve
from repro.workloads.catalogs import weather_catalog

CATALOG_SIZE = 120


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1000.0


def main() -> None:
    rng = np.random.default_rng(2000)
    items = weather_catalog(rng, count=CATALOG_SIZE, theta=1.1)
    tree = optimal_alphabetic_tree(
        [i.label for i in items],
        [i.weight for i in items],
        fanout=4,
    )
    print(
        f"Catalog: {CATALOG_SIZE} city reports, "
        f"{len(tree.index_nodes())} index nodes, "
        f"tree depth {tree.depth()}.\n"
    )

    # ------------------------------------------------------------------
    # Exact search is off the table: show it failing fast, on purpose.
    # ------------------------------------------------------------------
    try:
        solve(tree, channels=1, budget=20_000)
        print("unexpected: exact search finished within budget")
    except SearchBudgetExceeded as error:
        print(f"Exact search abandoned as expected: {error}.")
        print("Falling back to the heuristics.\n")

    # ------------------------------------------------------------------
    # Heuristic line-up (single channel).
    # ------------------------------------------------------------------
    rows = []
    sorting, ms = timed(sorting_schedule, tree, 1)
    rows.append(["sorting (preorder of sorted tree)", sorting.data_wait(), ms])
    combined, ms = timed(combine_and_solve, tree, max_data_nodes=12)
    rows.append(["shrinking: node combination", combined.data_wait(), ms])
    partitioned, ms = timed(partition_and_solve, tree, max_data_nodes=12)
    rows.append(["shrinking: tree partitioning", partitioned.data_wait(), ms])
    rows.append(["no-index floor", flat_broadcast_wait(tree), 0.0])
    print(
        format_table(
            ["method", "data wait (slots)", "time (ms)"],
            rows,
            title="Single-channel allocation of the 120-item catalog",
        )
    )

    # ------------------------------------------------------------------
    # Multi-channel scaling with the linear-time allocator.
    # ------------------------------------------------------------------
    scaling = []
    for channels in (1, 2, 3, 4, 6, 8):
        schedule, ms = timed(sorting_schedule, tree, channels)
        scaling.append(
            [channels, schedule.data_wait(), schedule.cycle_length, ms]
        )
    print()
    print(
        format_table(
            ["channels", "data wait", "cycle length", "time (ms)"],
            scaling,
            title="Sorting + 1_To_k_BroadcastChannel across channel counts",
        )
    )


if __name__ == "__main__":
    main()

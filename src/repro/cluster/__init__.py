"""Sharded multi-station clustering: partition, route, plan, refit.

The paper allocates one broadcast program; the ROADMAP's scale target
needs N of them. This package partitions the catalog/workload across N
:class:`~repro.net.station.BroadcastStation` shards
(:mod:`~repro.cluster.partition`), routes every key to exactly one
shard through an explicit directory (:mod:`~repro.cluster.router`),
plans each shard through the standard :mod:`repro.planners` facade, and
iteratively refits the split against *measured* per-shard cost
(:mod:`~repro.cluster.core`). The fleet harness
(:mod:`~repro.cluster.harness`) loadtests the whole cluster with
per-shard frame accounting and parity gates.
"""

from .core import RefitReport, RefitRound, ShardPlan, StationCluster
from .harness import (
    ClusterLoadReport,
    demo_catalog,
    make_cluster_trace,
    run_cluster_bench,
    run_cluster_loadtest,
    run_cluster_sweep,
    serve_cluster,
    sweep_summary,
)
from .partition import (
    PartitionerNotFound,
    available_partitioners,
    get_partitioner,
    hash_partition,
    partition_catalog,
    register_partitioner,
    unregister_partitioner,
    weight_balanced_partition,
)
from .router import ClusterRouter, UnknownKeyError

__all__ = [
    "StationCluster",
    "ShardPlan",
    "RefitRound",
    "RefitReport",
    "ClusterRouter",
    "UnknownKeyError",
    "PartitionerNotFound",
    "partition_catalog",
    "register_partitioner",
    "unregister_partitioner",
    "get_partitioner",
    "available_partitioners",
    "hash_partition",
    "weight_balanced_partition",
    "ClusterLoadReport",
    "make_cluster_trace",
    "serve_cluster",
    "run_cluster_loadtest",
    "run_cluster_sweep",
    "run_cluster_bench",
    "demo_catalog",
    "sweep_summary",
]

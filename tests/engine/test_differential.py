"""Property-based differential gate: batch ≡ scalar, bit for bit.

Hypothesis draws random allocation instances (tree shape × weights ×
channel count), random tune slots, and random loss/burst seeds; for
every generated walk the batch engine must reproduce the scalar
protocol's access, tuning, probe and data times *exactly* — not in
aggregate, per walk. A second property locks the dense compilation
itself: the flat arrays must round-trip back to the bucket grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broadcast.pointers import compile_program
from repro.client.protocol import (
    RecoveryPolicy,
    object_walk,
    recovering_walk,
)
from repro.client.simulator import summarise_faulty_records
from repro.core.optimal import solve
from repro.engine import compile_dense, run_batch
from repro.engine.dense import KIND_DATA, KIND_EMPTY, KIND_INDEX
from repro.faults import BurstConfig, FaultConfig, FaultInjector
from repro.tree.builders import random_tree
from repro.tree.node import IndexNode

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _instance(tree_seed: int, data_count: int, channels: int):
    rng = np.random.default_rng(tree_seed)
    tree = random_tree(rng, data_count, max_fanout=3)
    program = compile_program(solve(tree, channels=channels).schedule)
    return program, compile_dense(program)


instances = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # tree seed
    st.integers(min_value=2, max_value=9),  # data count
    st.integers(min_value=1, max_value=3),  # channels
)


class TestLosslessDifferential:
    @settings(max_examples=25, **COMMON)
    @given(instances, st.integers(min_value=0, max_value=10_000))
    def test_batch_reproduces_object_walk(self, instance, walk_seed):
        program, dense = _instance(*instance)
        leaves = program.schedule.tree.data_nodes()
        rng = np.random.default_rng(walk_seed)
        n = 40
        ids = rng.integers(0, dense.n_data, size=n)
        slots = rng.integers(1, dense.cycle_length + 1, size=n)
        records = run_batch(dense, ids, slots).to_records()
        for record, d, s in zip(records, ids, slots):
            assert record == object_walk(program, leaves[int(d)], int(s))


class TestFaultyDifferential:
    @settings(max_examples=20, **COMMON)
    @given(
        instances,
        st.integers(min_value=0, max_value=10_000),  # fault seed
        st.sampled_from(["retry-parent", "next-cycle"]),
        st.floats(min_value=0.0, max_value=0.4),
        st.booleans(),  # burst air
    )
    def test_batch_reproduces_recovering_walk(
        self, instance, fault_seed, mode, loss, burst
    ):
        program, dense = _instance(*instance)
        leaves = program.schedule.tree.data_nodes()
        faults = FaultConfig(
            loss=loss,
            corruption=0.05,
            burst=BurstConfig() if burst else None,
            seed=fault_seed,
        )
        policy = RecoveryPolicy(mode=mode, max_cycles=3)
        rng = np.random.default_rng(fault_seed + 1)
        n = 30
        ids = rng.integers(0, dense.n_data, size=n)
        slots = rng.integers(1, dense.cycle_length + 1, size=n)
        batch = run_batch(dense, ids, slots, faults=faults, recovery=policy)
        records = batch.to_records()
        scalar = [
            recovering_walk(
                program, leaves[int(d)], int(s), faults=faults, policy=policy
            )
            for d, s in zip(ids, slots)
        ]
        assert records == scalar
        # Abandoned-walk accounting aggregates identically too.
        assert batch.summarise() == summarise_faulty_records(scalar)


class TestDenseRoundTrip:
    @settings(max_examples=25, **COMMON)
    @given(instances)
    def test_dense_round_trips_to_the_bucket_grid(self, instance):
        program, dense = _instance(*instance)
        for row in program.buckets:
            for bucket in row:
                c, s = bucket.channel - 1, bucket.slot - 1
                if bucket.node is None:
                    assert dense.kind[c, s] == KIND_EMPTY
                elif isinstance(bucket.node, IndexNode):
                    assert dense.kind[c, s] == KIND_INDEX
                    start = dense.child_start[c, s]
                    count = dense.child_count[c, s]
                    pointers = [
                        (
                            int(dense.child_channel[start + j]),
                            int(dense.child_slot[start + j]),
                        )
                        for j in range(count)
                    ]
                    assert pointers == [
                        (p.channel, p.slot) for p in bucket.child_pointers
                    ]
                else:
                    assert dense.kind[c, s] == KIND_DATA
                    label = dense.data_labels[dense.data_id[c, s]]
                    assert label == bucket.node.label


class TestMultiBlockDifferential:
    """Walks whose deadline spans several 512-slot fault blocks.

    The drawn instances above have cycles of a few slots, so none of
    their fault streams leaves the first block. A ~300-item ``meta``
    plan under the default policy (eight cycles) queries slots across
    several blocks, where the stored stream grows block by block.
    """

    @staticmethod
    def _plan():
        from repro.planners import plan_catalog
        from repro.workloads.weights import zipf_weights

        labels = [f"K{index:03d}" for index in range(300)]
        weights = zipf_weights(np.random.default_rng(31), len(labels))
        program = plan_catalog(labels, list(weights), 2, method="meta").compile()
        return program, compile_dense(program)

    @pytest.mark.parametrize("mode", ["retry-parent", "next-cycle"])
    @pytest.mark.parametrize(
        "faults",
        [
            FaultConfig(loss=0.3, corruption=0.05, seed=41),
            FaultConfig(loss=0.1, corruption=0.05, burst=BurstConfig(), seed=42),
            FaultConfig(loss=[0.05, 0.45], corruption=0.05, seed=43),
        ],
        ids=["iid", "burst", "per-channel"],
    )
    def test_batch_reproduces_recovering_walk(self, faults, mode):
        program, dense = self._plan()
        policy = RecoveryPolicy(mode=mode)
        assert policy.max_cycles * dense.cycle_length > 3 * 512
        leaves = program.schedule.tree.data_nodes()
        rng = np.random.default_rng(faults.seed)
        n = 80
        ids = rng.integers(0, dense.n_data, size=n)
        slots = rng.integers(1, dense.cycle_length + 1, size=n)
        batch = run_batch(dense, ids, slots, faults=faults, recovery=policy)
        records = batch.to_records()
        shared = FaultInjector(faults)
        scalar = [
            recovering_walk(
                program, leaves[int(d)], int(s), faults=shared, policy=policy
            )
            for d, s in zip(ids, slots)
        ]
        assert records == scalar
        assert batch.summarise() == summarise_faulty_records(scalar)
        # Some walk read past the second fault block.
        assert max(s + r.access_time for s, r in zip(slots, scalar)) > 2 * 512

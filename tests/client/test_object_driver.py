"""The object-level walks as drivers of :class:`PointerWalk`.

:func:`object_walk` and :func:`recovering_walk` hand the walk each index
bucket with its pointer table narrowed to the child on the target's
path. These tests lock what that buys: plans a key-routing receiver
cannot navigate (``ptas`` interleaves key ranges across weight classes)
still walk exactly as the batch engine predicts, and object walks
narrate the same causal spans as every other driver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.protocol import (
    RecoveryPolicy,
    object_walk,
    recovering_walk,
)
from repro.engine import compile_dense, run_batch
from repro.exceptions import ReproError
from repro.faults import FaultConfig
from repro.io.wire import encode_program
from repro.io.wire_client import wire_walk
from repro.obs.events import RingBufferTracer
from repro.obs.spans import SpanFinished, SpanTracer, reconcile_with_attrib
from repro.planners import plan_catalog


@pytest.fixture(scope="module")
def ptas_program():
    # Two ultra-heavy items scattered through a light catalog give the
    # ptas planner two weight groups, whose subtrees' key ranges
    # interleave under the root.
    rng = np.random.default_rng(3)
    labels = [f"k{i:03d}" for i in range(48)]
    weights = [float(w) for w in rng.uniform(1.0, 2.0, len(labels))]
    for position in rng.choice(len(labels), 2, replace=False):
        weights[position] = 1000.0 * rng.uniform(1.0, 2.0)
    result = plan_catalog(labels, weights, 4, method="ptas")
    assert len(result.stats["groups"]) == 2
    return result.compile()


def sample_walks(program, per_leaf: int = 4, seed: int = 11):
    """Every leaf at ``per_leaf`` seeded tune slots: (ids, slots)."""
    rng = np.random.default_rng(seed)
    n_leaves = len(program.schedule.tree.data_nodes())
    ids = np.repeat(np.arange(n_leaves), per_leaf)
    slots = rng.integers(1, program.cycle_length + 1, size=ids.size)
    return ids, slots


class TestPtasPlans:
    def test_key_routing_cannot_walk_the_plan(self, ptas_program):
        """Why the object drivers narrow pointer tables: by key alone,
        some ptas targets route to the wrong leaf."""
        frames = encode_program(ptas_program)
        misrouted = 0
        for leaf in ptas_program.schedule.tree.data_nodes():
            try:
                wire_walk(frames, leaf.label, 1)
            except ReproError:
                misrouted += 1
        assert misrouted > 0

    def test_object_walk_equals_run_batch_for_every_key(self, ptas_program):
        leaves = ptas_program.schedule.tree.data_nodes()
        ids, slots = sample_walks(ptas_program)
        batch = run_batch(compile_dense(ptas_program), ids, slots).to_records()
        scalar = [
            object_walk(ptas_program, leaves[int(d)], int(s))
            for d, s in zip(ids, slots)
        ]
        assert batch == scalar

    @pytest.mark.parametrize("mode", ["retry-parent", "next-cycle"])
    def test_recovering_walk_equals_run_batch_under_loss(
        self, ptas_program, mode
    ):
        leaves = ptas_program.schedule.tree.data_nodes()
        ids, slots = sample_walks(ptas_program)
        faults = FaultConfig(loss=0.15, corruption=0.05, seed=29)
        policy = RecoveryPolicy(mode=mode, max_cycles=4)
        batch = run_batch(
            compile_dense(ptas_program), ids, slots,
            faults=faults, recovery=policy,
        ).to_records()
        scalar = [
            recovering_walk(
                ptas_program, leaves[int(d)], int(s),
                faults=faults, policy=policy,
            )
            for d, s in zip(ids, slots)
        ]
        assert batch == scalar
        assert any(record.retries for record in scalar)


class TestObjectWalkSpans:
    def test_walk_run_spans_tile_access_time(self, ptas_program):
        sink = RingBufferTracer()
        tracer = SpanTracer(sink)
        ids, slots = sample_walks(ptas_program, per_leaf=1)
        leaves = ptas_program.schedule.tree.data_nodes()
        records = {}
        for walk_id, (d, s) in enumerate(zip(ids, slots)):
            records[walk_id] = object_walk(
                ptas_program, leaves[int(d)], int(s),
                tracer=tracer, walk_id=walk_id,
            )
        runs = [
            e for e in sink.events
            if isinstance(e, SpanFinished) and e.name == "walk.run"
        ]
        assert len(runs) == len(records)
        per_walk, problems = reconcile_with_attrib(sink.events)
        assert problems == []
        for walk_id, record in records.items():
            assert per_walk[walk_id] == {
                "access_time": record.access_time,
                "segments": 1,
                "segment_slots": record.access_time,
            }

    def test_recovering_walk_spans_tile_under_loss(self, ptas_program):
        sink = RingBufferTracer()
        tracer = SpanTracer(sink)
        faults = FaultConfig(loss=0.2, seed=5)
        leaves = ptas_program.schedule.tree.data_nodes()
        retried = 0
        for walk_id, leaf in enumerate(leaves):
            record = recovering_walk(
                ptas_program, leaf, 1 + walk_id % ptas_program.cycle_length,
                faults=faults, tracer=tracer, walk_id=walk_id,
            )
            retried += record.retries > 0
        per_walk, problems = reconcile_with_attrib(sink.events)
        assert problems == []
        assert len(per_walk) == len(leaves)
        assert retried > 0

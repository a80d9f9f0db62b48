"""The object-level walks as drivers of :class:`PointerWalk`.

:func:`object_walk` and :func:`recovering_walk` hand the walk each index
bucket with its pointer table narrowed to the child on the target's
path. These tests lock that this narrowing changes nothing: for every
registered planner a frame-level walk routing by key alone measures the
same walk, the object walks match the batch engine on a ``ptas`` plan,
and object walks narrate the same causal spans as every other driver.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from repro.client.protocol import (
    RecoveryPolicy,
    object_walk,
    recovering_walk,
)
from repro.engine import compile_dense, run_batch
from repro.faults import FaultConfig
from repro.io.wire import encode_program
from repro.io.wire_client import wire_walk
from repro.obs.events import RingBufferTracer
from repro.obs.spans import SpanFinished, SpanTracer, reconcile_with_attrib
from repro.planners import available_planners, plan_catalog

#: Planners that refuse catalogs outside their preconditions: datatree
#: plans one channel only, corollary 1 needs a channel per node of the
#: widest tree level.
NARROW_PLANNERS = {"corollary1", "datatree"}


def heavy_light_catalog(seed: int, items: int, heavy: int):
    """``heavy`` ultra-heavy items scattered through a light catalog."""
    rng = np.random.default_rng(seed)
    labels = [f"k{i:03d}" for i in range(items)]
    weights = [float(w) for w in rng.uniform(1.0, 2.0, items)]
    for position in rng.choice(items, heavy, replace=False):
        weights[position] = 1000.0 * rng.uniform(1.0, 2.0)
    return labels, weights


@pytest.fixture(scope="module")
def ptas_program():
    labels, weights = heavy_light_catalog(3, 48, 2)
    return plan_catalog(labels, weights, 4, method="ptas").compile()


def sample_walks(program, per_leaf: int = 4, seed: int = 11):
    """Every leaf at ``per_leaf`` seeded tune slots: (ids, slots)."""
    rng = np.random.default_rng(seed)
    n_leaves = len(program.schedule.tree.data_nodes())
    ids = np.repeat(np.arange(n_leaves), per_leaf)
    slots = rng.integers(1, program.cycle_length + 1, size=ids.size)
    return ids, slots


class TestKeyRoutability:
    """Every planner's tree is an alphabetic search tree (§1, §2.1).

    A tuner that routes by comparing its key with each pointer's range
    therefore walks exactly the path :func:`object_walk` follows with
    its narrowed pointer tables, for every leaf and tune-in slot. The
    catalogs put 1–5 ultra-heavy items among light ones, the shape that
    once split ``ptas`` into per-weight-class subtrees whose key ranges
    interleaved under the root.
    """

    @pytest.mark.parametrize("method", available_planners())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.filter_too_much,
        ],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        light=st.integers(min_value=6, max_value=16),
        heavy=st.integers(min_value=1, max_value=5),
        channels=st.integers(min_value=1, max_value=8),
        tune_slots=st.lists(
            st.integers(min_value=1, max_value=10_000), min_size=1, max_size=3
        ),
    )
    # Two weight groups at the grouping ptas once used.
    @example(seed=0, light=6, heavy=1, channels=7, tune_slots=[1])
    def test_wire_walk_equals_object_walk(
        self, method, seed, light, heavy, channels, tune_slots
    ):
        labels, weights = heavy_light_catalog(seed, light + heavy, heavy)
        try:
            result = plan_catalog(labels, weights, channels, method=method)
        except ValueError:
            if method not in NARROW_PLANNERS:
                raise
            # Outside the planner's preconditions: not an example at
            # all, so a planner that refuses every draw fails the test.
            reject()
        program = result.compile()
        frames = encode_program(program)
        for leaf in program.schedule.tree.data_nodes():
            for tune in tune_slots:
                slot = (tune - 1) % program.cycle_length + 1
                routed = wire_walk(frames, leaf.label, slot)
                followed = object_walk(program, leaf, slot)
                assert (
                    routed.access_time, routed.data_wait,
                    routed.tuning_time, routed.channel_switches,
                ) == (
                    followed.access_time, followed.data_wait,
                    followed.tuning_time, followed.channel_switches,
                ), (method, leaf.label, slot)


class TestPtasPlans:
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

"""Property-based tests of what a store writes.

Over random publish sequences (small nudges that leave the tree alone,
reshuffles that change it, and republished content), every publish
adds at most one object, every version reloads
byte-exactly through a fresh handle, and every object file is named by
the SHA-256 of its bytes.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.harness import demo_labels
from repro.planners import plan_catalog
from repro.sched import ScheduleStore, canonical_bytes, plan_to_doc
from repro.sched.delta import plan_bytes
from repro.workloads.weights import zipf_weights

ITEMS = 8

steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("nudge"),
            st.integers(min_value=0, max_value=ITEMS - 1),
            st.floats(min_value=0.9, max_value=1.1),
        ),
        st.tuples(st.just("shuffle"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("repeat"), st.integers(min_value=0, max_value=99)),
    ),
    min_size=1,
    max_size=8,
)


def plans_for(sequence) -> list:
    """One plan per step; the weights carry over from step to step."""
    weights = [float(w) for w in zipf_weights(np.random.default_rng(0), ITEMS)]
    plans = []
    for step in sequence:
        if step[0] == "nudge":
            weights[step[1]] *= step[2]
        elif step[0] == "shuffle":
            weights = list(np.random.default_rng(step[1]).permutation(weights))
        elif plans:  # repeat an earlier plan
            plans.append(plans[step[1] % len(plans)])
            continue
        plans.append(
            plan_catalog(
                demo_labels(ITEMS), weights, 2, method="sorting", fanout=3
            )
        )
    return plans


class TestStoredObjects:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sequence=steps)
    def test_deltas_pay_reloads_are_exact_and_names_are_hashes(
        self, sequence
    ):
        plans = plans_for(sequence)
        with tempfile.TemporaryDirectory() as root:
            store = ScheduleStore(root)
            objects = Path(root, "objects")
            records = []
            for plan in plans:
                before = len(list(objects.iterdir()))
                records.append(store.publish(plan))
                assert len(list(objects.iterdir())) - before <= 1
            fresh = ScheduleStore(root)
            for record, plan in zip(records, plans):
                loaded = fresh.load(record.version)
                assert canonical_bytes(plan_to_doc(loaded)) == plan_bytes(plan)
            for path in objects.glob("*.json"):
                assert hashlib.sha256(path.read_bytes()).hexdigest() == path.stem
            assert fresh.verify() == len(plans)

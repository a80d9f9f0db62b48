"""Property-based tests of the repro.sched delta codec.

``delta`` is what ``repro sched diff`` prints. Its oracle is the
exact-inverse property, over *arbitrary* JSON documents and over real
plan documents::

    canonical_bytes(apply_delta(delta(a, b), a)) == canonical_bytes(b)

Byte-exact, not merely equal: any serialisation drift (int vs float,
-0.0 vs 0.0, tuple vs list) would make the diff misreport a change.
The store no longer reads deltas, so ``apply_delta``, which replays
the ops, lives here, with the tests that need it.
"""

from __future__ import annotations

import copy
import json
import math
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.io.json_io import schedule_to_dict
from repro.net.harness import build_demo_plan
from repro.planners import PlanResult
from repro.sched import PlanDocumentError, canonical_bytes, content_id, delta
from repro.sched.delta import (
    PLAN_FORMAT,
    plan_bytes,
    plan_from_doc,
    plan_to_doc,
)


def _resolve(doc: Any, path: list) -> Any:
    node = doc
    for step in path:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError) as error:
            raise ValueError(f"delta path {path!r} does not resolve") from error
    return node


def apply_delta(ops: list[dict], base: Any) -> Any:
    """Replay a :func:`delta` op list onto ``base`` (left untouched)."""
    doc = copy.deepcopy(base)
    for op in ops:
        try:
            kind = op["op"]
            path = op["path"]
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed delta op {op!r}") from error
        if kind == "set":
            if not path:
                doc = copy.deepcopy(op["value"])
                continue
            parent = _resolve(doc, path[:-1])
            try:
                parent[path[-1]] = copy.deepcopy(op["value"])
            except (IndexError, TypeError) as error:
                raise ValueError(
                    f"cannot set {path!r} on the base document"
                ) from error
        elif kind == "del":
            if not path:
                raise ValueError("cannot delete the document root")
            parent = _resolve(doc, path[:-1])
            try:
                del parent[path[-1]]
            except (KeyError, IndexError, TypeError) as error:
                raise ValueError(
                    f"cannot delete {path!r} from the base document"
                ) from error
        elif kind == "push":
            target = _resolve(doc, path)
            if not isinstance(target, list):
                raise ValueError(f"push target {path!r} is not a list")
            target.extend(copy.deepcopy(op["values"]))
        elif kind == "trim":
            target = _resolve(doc, path)
            if not isinstance(target, list):
                raise ValueError(f"trim target {path!r} is not a list")
            length = op["length"]
            if not 0 <= length <= len(target):
                raise ValueError(
                    f"trim length {length} out of range for {path!r}"
                )
            del target[length:]
        else:
            raise ValueError(f"unknown delta op {kind!r}")
    return doc


COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Finite floats only: canonical_bytes refuses NaN/Infinity by design
# (they are not JSON), so documents containing them cannot exist in a
# store.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
)

json_docs = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=25,
)


class TestDeltaRoundTrip:
    @settings(max_examples=250, **COMMON)
    @given(a=json_docs, b=json_docs)
    def test_apply_inverts_delta_byte_exactly(self, a, b):
        patched = apply_delta(delta(a, b), a)
        assert canonical_bytes(patched) == canonical_bytes(b)
        assert content_id(patched) == content_id(b)

    @settings(max_examples=150, **COMMON)
    @given(doc=json_docs)
    def test_self_delta_is_empty(self, doc):
        assert delta(doc, doc) == []

    @settings(max_examples=150, **COMMON)
    @given(a=json_docs, b=json_docs)
    def test_base_document_is_never_mutated(self, a, b):
        before = canonical_bytes(a)
        apply_delta(delta(a, b), a)
        assert canonical_bytes(a) == before

    @settings(max_examples=150, **COMMON)
    @given(a=json_docs, b=json_docs)
    def test_delta_is_deterministic(self, a, b):
        assert delta(a, b) == delta(a, b)

    def test_signed_zero_and_numeric_type_flips_still_diff(self):
        """Python-equal but serialisation-distinct scalars must diff."""
        for base, target in [(-0.0, 0.0), (2, 2.0), (1, True)]:
            ops = delta(base, target)
            assert ops, f"{base!r} -> {target!r} must produce an op"
            patched = apply_delta(ops, base)
            assert canonical_bytes(patched) == canonical_bytes(target)

    @settings(max_examples=100, **COMMON)
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_float_values_survive_exactly(self, value):
        patched = apply_delta(delta(None, value), None)
        assert isinstance(patched, float)
        assert math.copysign(1.0, patched) == math.copysign(1.0, value)
        assert patched == value


class TestPlanDocumentRoundTrip:
    """The property on the documents the store actually diffs."""

    @settings(max_examples=8, **COMMON)
    @given(
        theta_a=st.sampled_from([0.35, 0.6, 0.95]),
        theta_b=st.sampled_from([0.35, 0.6, 0.95]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_plan_pairs_round_trip(self, theta_a, theta_b, seed):
        doc_a = plan_to_doc(
            build_demo_plan(items=10, channels=2, seed=seed, theta=theta_a)
        )
        doc_b = plan_to_doc(
            build_demo_plan(items=10, channels=2, seed=seed + 1, theta=theta_b)
        )
        patched = apply_delta(delta(doc_a, doc_b), doc_a)
        assert canonical_bytes(patched) == canonical_bytes(doc_b)
        # And the patched document is a loadable plan, not just bytes.
        rebuilt = plan_from_doc(patched)
        assert canonical_bytes(plan_to_doc(rebuilt)) == canonical_bytes(doc_b)

    @pytest.mark.parametrize(
        ("mutate", "message"),
        [
            (lambda doc: doc.update(format="other"), "not a broadcast-alloc"),
            (lambda doc: doc.update(version=2), "unknown plan document version"),
            (lambda doc: doc.pop("cost"), "malformed plan document"),
        ],
        ids=["format", "version", "field"],
    )
    def test_a_document_that_is_no_plan_raises(self, mutate, message):
        doc = plan_to_doc(build_demo_plan(items=10, channels=2))
        mutate(doc)
        with pytest.raises(PlanDocumentError, match=message) as caught:
            plan_from_doc(doc)
        assert isinstance(caught.value, ReproError)


def frozen_plan_to_doc(result: PlanResult) -> dict:
    """The document as the store built it before ``plan_bytes``: the
    whole document through one ``json`` round trip."""
    doc = {
        "format": PLAN_FORMAT,
        "version": 1,
        "schedule": schedule_to_dict(result.schedule),
        "cost": result.cost,
        "method": result.method,
        "stats": result.stats,
    }
    return json.loads(canonical_bytes(doc).decode())


class TestPlanBytes:
    """One serialisation gives the bytes the round trip gave."""

    @settings(max_examples=12, **COMMON)
    @given(
        planner=st.sampled_from(["sorting", "meta", "ptas", "shrink-combine"]),
        theta=st.sampled_from([0.35, 0.95, 1.2]),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_equals_the_round_tripped_document(self, planner, theta, seed):
        result = build_demo_plan(
            items=12, channels=3, planner=planner, theta=theta, seed=seed
        )
        assert plan_bytes(result) == canonical_bytes(frozen_plan_to_doc(result))

    def test_stats_keys_sort_as_strings(self):
        """Non-string keys in ``stats`` serialise as the round trip did."""
        result = build_demo_plan(items=6, channels=2)
        odd = PlanResult(
            result.schedule, result.cost, result.method,
            {2: {3: 1.5, 20: None}, 10: (1, 2)},
        )
        assert plan_bytes(odd) == canonical_bytes(frozen_plan_to_doc(odd))

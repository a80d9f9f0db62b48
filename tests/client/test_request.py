"""The unified request facade and its engine registry."""

from __future__ import annotations

import warnings

import pytest

from repro.broadcast.pointers import compile_program
from repro.client import (
    EngineNotFound,
    WalkEngine,
    engines,
    get_engine,
    object_walk,
    recovering_walk,
    register_engine,
    request,
    unregister_engine,
)
from repro.client.protocol import AccessRecord, RecoveryPolicy
from repro.client.walk import WalkResult
from repro.core.optimal import solve
from repro.faults import FaultConfig
from repro.obs.events import RingBufferTracer
from repro.tree.builders import paper_example_tree


@pytest.fixture(scope="module")
def program():
    return compile_program(solve(paper_example_tree(), channels=2).schedule)


@pytest.fixture(scope="module")
def leaf(program):
    return program.schedule.tree.data_nodes()[0]


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"object", "wire", "batch"} <= set(engines())

    def test_unknown_engine_raises_with_available_names(self, program, leaf):
        with pytest.raises(EngineNotFound, match="object"):
            request(program, leaf, 1, engine="quantum")

    def test_get_engine_resolves(self):
        assert callable(get_engine("object"))

    def test_register_and_unregister(self, program, leaf):
        calls = []

        @register_engine("recording")
        def recording_engine(program, target, tune_slot, **options):
            calls.append((target.label, tune_slot))
            return object_walk(program, target, tune_slot)

        try:
            record = request(program, leaf, 2, engine="recording")
            assert calls == [(leaf.label, 2)]
            assert record == object_walk(program, leaf, 2)
        finally:
            unregister_engine("recording")
        assert "recording" not in engines()
        unregister_engine("recording")  # idempotent

    def test_builtin_engines_satisfy_the_protocol(self):
        for name in ("object", "wire", "batch"):
            assert isinstance(get_engine(name), WalkEngine)


class TestObjectEngine:
    def test_default_engine_is_the_object_walk(self, program, leaf):
        assert request(program, leaf, 3) == object_walk(program, leaf, 3)

    def test_label_targets_resolve(self, program, leaf):
        assert request(program, leaf.label, 3) == request(program, leaf, 3)

    def test_unknown_label_raises(self, program):
        with pytest.raises(ValueError, match="no data item"):
            request(program, "no-such-item", 1)

    def test_index_node_target_rejected(self, program):
        with pytest.raises(ValueError, match="data nodes"):
            request(program, program.schedule.tree.root, 1)

    def test_faults_switch_to_the_recovering_walk(self, program, leaf):
        faults = FaultConfig(loss=0.3, seed=5)
        policy = RecoveryPolicy(max_cycles=4)
        expected = recovering_walk(
            program, leaf, 2, faults=faults, policy=policy
        )
        assert request(
            program, leaf, 2, faults=faults, recovery=policy
        ) == expected

    def test_recovery_alone_switches_too(self, program, leaf):
        record = request(program, leaf, 2, recovery=RecoveryPolicy())
        assert record.abandoned is False  # a RecoveredAccessRecord field

    def test_tracer_is_threaded_through(self, program, leaf):
        tracer = RingBufferTracer()
        request(program, leaf, 1, tracer=tracer, walk_id=7)
        assert tracer.events
        assert {e.walk for e in tracer.events} == {7}


class TestWireEngine:
    def test_matches_object_times_on_lossless_air(self, program, leaf):
        record = request(program, leaf, 3, engine="wire")
        baseline = request(program, leaf, 3)
        assert isinstance(record, WalkResult)
        assert record.access_time == baseline.access_time
        assert record.tuning_time == baseline.tuning_time
        assert record.data_wait == baseline.data_wait

    def test_frames_are_cached_on_the_program(self, program, leaf):
        request(program, leaf, 1, engine="wire")
        first = program.__dict__["_request_frames"]
        request(program, leaf, 2, engine="wire")
        assert program.__dict__["_request_frames"] is first

    def test_faults_are_rejected(self, program, leaf):
        with pytest.raises(ValueError, match="transport"):
            request(
                program, leaf, 1, engine="wire",
                faults=FaultConfig(loss=0.1),
            )
        with pytest.raises(ValueError, match="transport"):
            request(
                program, leaf, 1, engine="wire", recovery=RecoveryPolicy()
            )


class TestBatchEngine:
    def test_single_request_matches_object(self, program, leaf):
        record = request(program, leaf, 4, engine="batch")
        assert type(record) is AccessRecord
        assert record == request(program, leaf, 4)

    def test_faulty_request_matches_recovering(self, program, leaf):
        faults = FaultConfig(loss=0.25, corruption=0.05, seed=11)
        policy = RecoveryPolicy(max_cycles=3)
        expected = recovering_walk(
            program, leaf, 2, faults=faults, policy=policy
        )
        assert request(
            program, leaf, 2, engine="batch", faults=faults, recovery=policy
        ) == expected

    def test_dense_compilation_is_cached(self, program, leaf):
        request(program, leaf, 1, engine="batch")
        first = program.__dict__["_request_dense"]
        request(program, leaf, 2, engine="batch")
        assert program.__dict__["_request_dense"] is first

    def test_tracer_is_rejected(self, program, leaf):
        with pytest.raises(ValueError, match="columnar"):
            request(
                program, leaf, 1, engine="batch", tracer=RingBufferTracer()
            )


class TestCacheInvalidation:
    def test_invalidate_clears_every_request_cache(self, program, leaf):
        from repro.client.request import invalidate_request_caches

        request(program, leaf, 1)  # warm the per-program caches
        request(program, leaf, 1, engine="batch")
        cached = [
            key for key in program.__dict__ if key.startswith("_request_")
        ]
        assert cached, "the facade should have cached something to clear"
        assert invalidate_request_caches(program) == len(cached)
        assert not any(
            key.startswith("_request_") for key in program.__dict__
        )
        # Idempotent, and the facade re-warms transparently afterwards.
        assert invalidate_request_caches(program) == 0
        assert request(program, leaf, 1) == object_walk(program, leaf, 1)

    def test_walk_names_do_not_warn(self, program, leaf):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            object_walk(program, leaf, 1)
            request(program, leaf, 1)

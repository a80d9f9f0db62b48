"""The batch simulator's inputs against frozen copies of the code they replaced.

``FaultInjector`` stores each channel's fates as one byte per slot and
classifies a block of draws with array comparisons; ``compile_dense``
computes its per-target constants in one array pass. The classes and
functions below are the versions they replaced, kept as they were: the
per-slot ``_extend`` loop over a generator rebuilt for every block, and
the per-target ``np.diff`` loop. Today's code must give the same fates,
patterns and codes for every query order, origin and config, and the
same ``target_data_wait`` and ``target_switches`` for every program.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broadcast.pointers import compile_program
from repro.core.optimal import solve
from repro.engine import compile_dense
from repro.engine.masks import materialise_outcomes
from repro.faults import (
    CORRUPT,
    LOST,
    OK,
    BurstConfig,
    FaultConfig,
    FaultInjector,
)
from repro.planners import plan_catalog
from repro.tree.builders import random_tree
from repro.workloads.weights import zipf_weights

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

_CODE = {OK: 0, LOST: 1, CORRUPT: 2}


# ---------------------------------------------------------------------------
# frozen: FaultInjector's outcome streams (faults.py)
# ---------------------------------------------------------------------------

_FROZEN_BLOCK = 512


class FrozenInjector:
    def __init__(self, config, *, origin=0):
        self.config = config
        self.origin = origin
        self._outcomes = {}
        self._states = {}

    def outcome(self, channel, slot):
        if channel < 1 or slot < 1:
            raise ValueError("channel and slot are 1-based")
        if self.config.is_lossless:
            return OK
        index = self.origin + slot - 1
        pattern = self._outcomes.setdefault(channel, [])
        if index >= len(pattern):
            self._extend(channel, pattern, index + 1)
        return pattern[index]

    def shifted(self, origin):
        view = FrozenInjector.__new__(FrozenInjector)
        view.config = self.config
        view.origin = self.origin + origin
        view._outcomes = self._outcomes
        view._states = self._states
        return view

    def _extend(self, channel, pattern, needed):
        config = self.config
        blocks = -(-max(needed - len(pattern), 1) // _FROZEN_BLOCK)
        count = blocks * _FROZEN_BLOCK
        stream = self._stream(channel, start=len(pattern))
        draws = stream.random((count, 3))
        loss_good = config.loss_for(channel)
        burst = config.burst
        bad = self._states.get(channel, False)
        for u_state, u_loss, u_corrupt in draws:
            if burst is not None:
                bad = (
                    (not (u_state < burst.exit_bad))
                    if bad
                    else (u_state < burst.enter_bad)
                )
            loss_rate = burst.loss_bad if (burst is not None and bad) else (
                loss_good
            )
            if u_loss < loss_rate:
                pattern.append(LOST)
            elif u_corrupt < config.corruption:
                pattern.append(CORRUPT)
            else:
                pattern.append(OK)
        self._states[channel] = bad

    def _stream(self, channel, start):
        stream = np.random.default_rng([self.config.seed, channel])
        if start:
            stream.random((start, 3))
        return stream

    def pattern(self, channel, slots):
        return [self.outcome(channel, slot) for slot in range(1, slots + 1)]


# ---------------------------------------------------------------------------
# frozen: compile_dense's per-target constants (engine/dense.py)
# ---------------------------------------------------------------------------

def frozen_target_constants(path_start, path_len, path_channel, path_slot):
    n = len(path_start)
    target_data_wait = np.zeros(n, dtype=np.int64)
    target_switches = np.zeros(n, dtype=np.int64)
    for d in range(n):
        start, length = int(path_start[d]), int(path_len[d])
        hops = path_channel[start:start + length]
        target_data_wait[d] = path_slot[start + length - 1]
        switches = int(hops[0] != 1)
        switches += int(np.count_nonzero(np.diff(hops)))
        target_switches[d] = switches
    return target_data_wait, target_switches


def assert_same_constants(dense):
    wait, switches = frozen_target_constants(
        dense.path_start, dense.path_len, dense.path_channel, dense.path_slot
    )
    assert dense.target_data_wait.dtype == wait.dtype
    assert dense.target_switches.dtype == switches.dtype
    assert np.array_equal(dense.target_data_wait, wait)
    assert np.array_equal(dense.target_switches, switches)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

probabilities = st.floats(min_value=0.0, max_value=1.0)

configs = st.builds(
    FaultConfig,
    loss=st.one_of(
        probabilities,
        st.lists(probabilities, min_size=1, max_size=3),
    ),
    corruption=st.one_of(st.just(0.0), probabilities),
    burst=st.one_of(
        st.none(),
        st.builds(
            BurstConfig,
            enter_bad=probabilities,
            exit_bad=probabilities,
            loss_bad=probabilities,
        ),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)

queries = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # channel
        st.integers(min_value=1, max_value=1_800),  # slot
        st.integers(min_value=0, max_value=700),  # view origin
    ),
    min_size=1,
    max_size=25,
)


class TestFaultStreams:
    @settings(max_examples=150, **COMMON)
    @given(configs, queries)
    def test_interleaved_outcomes_match(self, config, asked):
        today, frozen = FaultInjector(config), FrozenInjector(config)
        for channel, slot, origin in asked:
            assert today.shifted(origin).outcome(channel, slot) == (
                frozen.shifted(origin).outcome(channel, slot)
            )

    @settings(max_examples=100, **COMMON)
    @given(
        configs,
        st.integers(min_value=0, max_value=600),  # origin
        st.integers(min_value=0, max_value=1_300),  # slots
        st.integers(min_value=1, max_value=3),  # channel
        st.integers(min_value=0, max_value=2_000),  # slot asked first
    )
    def test_patterns_and_codes_match(
        self, config, origin, slots, channel, warm
    ):
        frozen = FrozenInjector(config, origin=origin).pattern(channel, slots)
        today = FaultInjector(config)
        if warm:
            today.outcome(channel, warm)  # grow the stream out of order
        view = today.shifted(origin)
        codes = view.codes(channel, slots)
        assert codes.dtype == np.int8
        assert codes.tolist() == [_CODE[fate] for fate in frozen]
        assert view.pattern(channel, slots) == frozen

    @settings(max_examples=40, **COMMON)
    @given(
        configs,
        st.integers(min_value=1, max_value=3),  # channels
        st.integers(min_value=1, max_value=1_600),  # slots
        st.integers(min_value=0, max_value=900),  # origin
    )
    def test_outcome_grid_matches(self, config, channels, slots, origin):
        frozen = FrozenInjector(config, origin=origin)
        grid = materialise_outcomes(
            FaultInjector(config).shifted(origin), channels, slots
        )
        expected = [
            [_CODE[fate] for fate in frozen.pattern(channel, slots)]
            for channel in range(1, channels + 1)
        ]
        assert grid.dtype == np.int8
        assert grid.tolist() == expected


class TestDenseConstants:
    @settings(max_examples=40, **COMMON)
    @given(
        st.integers(min_value=0, max_value=10_000),  # tree seed
        st.integers(min_value=1, max_value=9),  # data count
        st.integers(min_value=1, max_value=3),  # channels
    )
    def test_random_trees(self, seed, data_count, channels):
        tree = random_tree(
            np.random.default_rng(seed), data_count, max_fanout=3
        )
        program = compile_program(solve(tree, channels=channels).schedule)
        assert_same_constants(compile_dense(program))

    @settings(max_examples=15, **COMMON)
    @given(
        st.integers(min_value=1, max_value=400),  # items
        st.integers(min_value=1, max_value=4),  # channels
        st.sampled_from(["meta", "sorting", "ptas"]),
        st.floats(min_value=0.0, max_value=1.5),  # zipf theta
        st.integers(min_value=0, max_value=10_000),  # weight seed
    )
    def test_catalog_plans(self, items, channels, method, theta, seed):
        labels = [f"K{index:04d}" for index in range(items)]
        weights = list(
            zipf_weights(np.random.default_rng(seed), items, theta)
        )
        plan = plan_catalog(labels, weights, channels, method=method)
        assert_same_constants(compile_dense(plan.compile()))

"""The batch simulator against frozen copies of the code it replaced.

``FaultInjector`` stores each channel's fates as one byte per slot and
classifies a block of draws with array comparisons; ``compile_dense``
builds its path tables level by level from parent indices and computes
its per-target constants in one array pass; the faulty batch moves each
walk from fault to fault. The classes and functions below are the
versions they replaced, kept as they were: the per-slot ``_extend`` loop
over a generator rebuilt for every block, the per-target ``np.diff``
loop, ``compile_dense`` with its trail-copying pointer DFS, and the
masked loop that made one read per active walk per step. Today's code
must give the same fates, patterns and codes for every query order,
origin and config, the same ``DenseProgram`` for every program, and the
same ``BatchRecords`` for every faulty batch.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broadcast.pointers import compile_program
from repro.broadcast.schedule import BroadcastSchedule
from repro.client.protocol import RecoveryPolicy
from repro.core.optimal import solve
from repro.engine import compile_dense, run_batch
from repro.engine.dense import KIND_DATA, KIND_INDEX, DenseProgram
from repro.engine.masks import (
    FATE_CORRUPT,
    FATE_LOST,
    FATE_OK,
    materialise_outcomes,
)
from repro.engine.records import BatchRecords
from repro.exceptions import ScheduleError
from repro.faults import (
    CORRUPT,
    LOST,
    OK,
    BurstConfig,
    FaultConfig,
    FaultInjector,
)
from repro.planners import plan_catalog
from repro.tree.builders import from_spec, random_tree
from repro.tree.node import IndexNode
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
# frozen: compile_dense with its pointer DFS (engine/dense.py)
# ---------------------------------------------------------------------------

def frozen_compile_dense(program):
    channels = program.channels
    cycle = program.cycle_length
    kind = np.zeros((channels, cycle), dtype=np.int8)
    data_id = np.full((channels, cycle), -1, dtype=np.int32)
    child_start = np.zeros((channels, cycle), dtype=np.int32)
    child_count = np.zeros((channels, cycle), dtype=np.int32)
    child_channel = []
    child_slot = []

    tree = program.schedule.tree
    data_nodes = tree.data_nodes()
    data_labels = tuple(node.label for node in data_nodes)
    id_of = {id(node): index for index, node in enumerate(data_nodes)}

    for row in program.buckets:
        for bucket in row:
            c, s = bucket.channel - 1, bucket.slot - 1
            if bucket.node is None:
                continue
            if isinstance(bucket.node, IndexNode):
                kind[c, s] = KIND_INDEX
                child_start[c, s] = len(child_channel)
                child_count[c, s] = len(bucket.child_pointers)
                for pointer in bucket.child_pointers:
                    child_channel.append(pointer.channel)
                    child_slot.append(pointer.slot)
            else:
                d = id_of.get(id(bucket.node))
                if d is None:
                    raise ScheduleError(
                        f"bucket grid carries a data node "
                        f"{bucket.node.label!r} that is not in the tree's "
                        "catalog"
                    )
                kind[c, s] = KIND_DATA
                data_id[c, s] = d

    root = program.root_bucket()
    root_channel, root_slot = root.channel, root.slot

    path_start = np.zeros(len(data_nodes), dtype=np.int32)
    path_len = np.zeros(len(data_nodes), dtype=np.int32)
    path_channel = []
    path_slot = []
    reached = 0
    stack = [(root, [(root_channel, root_slot)])]
    while stack:
        bucket, trail = stack.pop()
        node = bucket.node
        if node is None:
            raise ScheduleError(
                f"pointer walk reached an empty bucket at channel "
                f"{bucket.channel}, slot {bucket.slot}"
            )
        if isinstance(node, IndexNode):
            for pointer in bucket.child_pointers:
                child = program.bucket_at(pointer.channel, pointer.slot)
                stack.append((child, trail + [(pointer.channel, pointer.slot)]))
        else:
            d = id_of.get(id(node))
            if d is None:
                raise ScheduleError(
                    f"pointer walk reached a data node {node.label!r} "
                    "that is not in the tree's catalog"
                )
            path_start[d] = len(path_channel)
            path_len[d] = len(trail)
            for hop_channel, hop_slot in trail:
                path_channel.append(hop_channel)
                path_slot.append(hop_slot)
            reached += 1
    if reached != len(data_nodes):
        missing = [
            node.label
            for node in data_nodes
            if path_len[id_of[id(node)]] == 0
        ]
        raise ScheduleError(
            f"{len(data_nodes) - reached} data node(s) unreachable "
            f"through the compiled pointers: {', '.join(missing)}"
        )

    path_channel_arr = np.asarray(path_channel, dtype=np.int32)
    path_slot_arr = np.asarray(path_slot, dtype=np.int32)

    path_end = path_start + path_len - 1
    target_data_wait = path_slot_arr[path_end].astype(np.int64)
    changes = np.zeros(len(path_channel_arr), dtype=np.int64)
    np.cumsum(
        path_channel_arr[1:] != path_channel_arr[:-1], out=changes[1:]
    )
    target_switches = (
        (path_channel_arr[path_start] != 1)
        + changes[path_end]
        - changes[path_start]
    )

    return DenseProgram(
        channels=channels,
        cycle_length=cycle,
        root_channel=root_channel,
        root_slot=root_slot,
        kind=kind,
        data_id=data_id,
        child_start=child_start,
        child_count=child_count,
        child_channel=np.asarray(child_channel, dtype=np.int32),
        child_slot=np.asarray(child_slot, dtype=np.int32),
        data_labels=data_labels,
        path_start=path_start,
        path_len=path_len,
        path_channel=path_channel_arr,
        path_slot=path_slot_arr,
        target_data_wait=target_data_wait,
        target_switches=target_switches,
    )


# ---------------------------------------------------------------------------
# frozen: run_batch's masked faulty loop (engine/batch.py)
# ---------------------------------------------------------------------------

def frozen_run_recovering(dense, target_id, tune, faults, recovery):
    target_id = np.ascontiguousarray(target_id, dtype=np.int64)
    tune = np.ascontiguousarray(tune, dtype=np.int64)
    if recovery is None:
        recovery = RecoveryPolicy()
    cycle = dense.cycle_length
    deadline = recovery.max_cycles * cycle
    retry_parent = recovery.mode == "retry-parent"
    fate_grid = materialise_outcomes(faults, dense.channels, deadline)

    n = target_id.size
    pstart = dense.path_start[target_id].astype(np.int64)
    plen = dense.path_len[target_id].astype(np.int64)

    phase = np.zeros(n, dtype=np.int8)  # 0 probing channel 1, 1 descending
    absolute = tune.copy()
    depth = np.zeros(n, dtype=np.int64)
    cur_ch = np.ones(n, dtype=np.int64)
    nxt_ch = np.zeros(n, dtype=np.int64)
    nxt_slot = np.zeros(n, dtype=np.int64)
    tuning = np.zeros(n, dtype=np.int64)
    switches = np.zeros(n, dtype=np.int64)
    lost = np.zeros(n, dtype=np.int64)
    corrupt = np.zeros(n, dtype=np.int64)
    retries = np.zeros(n, dtype=np.int64)
    probe_wait = np.zeros(n, dtype=np.int64)
    final = np.zeros(n, dtype=np.int64)
    abandoned = np.zeros(n, dtype=bool)
    done = np.zeros(n, dtype=bool)

    active = np.flatnonzero(~done)
    while active.size:
        over = active[absolute[active] > deadline]
        if over.size:
            done[over] = True
            abandoned[over] = True
            final[over] = deadline
            active = active[absolute[active] <= deadline]
            if not active.size:
                break

        probing = active[phase[active] == 0]
        descending = active[phase[active] == 1]

        if probing.size:
            fate = fate_grid[0, absolute[probing] - 1]
            tuning[probing] += 1
            ok = probing[fate == FATE_OK]
            bad = probing[fate != FATE_OK]
            if ok.size:
                probe_cycle = (absolute[ok] - 1) // cycle
                absolute[ok] = (probe_cycle + 1) * cycle + dense.root_slot
                nxt_ch[ok] = dense.root_channel
                nxt_slot[ok] = dense.root_slot
                phase[ok] = 1
            if bad.size:
                retries[bad] += 1
                lost[bad] += fate[fate != FATE_OK] == FATE_LOST
                corrupt[bad] += fate[fate != FATE_OK] == FATE_CORRUPT
                absolute[bad] += 1

        if descending.size:
            hopped = nxt_ch[descending] != cur_ch[descending]
            switches[descending] += hopped
            fate = fate_grid[
                nxt_ch[descending] - 1, absolute[descending] - 1
            ]
            tuning[descending] += 1
            cur_ch[descending] = nxt_ch[descending]
            ok = descending[fate == FATE_OK]
            bad = descending[fate != FATE_OK]
            if ok.size:
                first = ok[(depth[ok] == 0) & (probe_wait[ok] == 0)]
                probe_wait[first] = absolute[first] - tune[first] + 1
                arrived = depth[ok] == plen[ok] - 1
                fin = ok[arrived]
                done[fin] = True
                final[fin] = absolute[fin]
                down = ok[~arrived]
                if down.size:
                    depth[down] += 1
                    hop = pstart[down] + depth[down]
                    nxt_ch[down] = dense.path_channel[hop]
                    nxt_slot[down] = dense.path_slot[hop]
                    absolute[down] = frozen_next_airing(
                        nxt_slot[down], absolute[down], cycle
                    )
            if bad.size:
                retries[bad] += 1
                lost[bad] += fate[fate != FATE_OK] == FATE_LOST
                corrupt[bad] += fate[fate != FATE_OK] == FATE_CORRUPT
                if retry_parent:
                    rewait = bad[depth[bad] == 0]
                    parent = bad[depth[bad] > 0]
                else:
                    rewait = bad
                    parent = bad[:0]
                absolute[rewait] += cycle
                if parent.size:
                    depth[parent] -= 1
                    hop = pstart[parent] + depth[parent]
                    nxt_ch[parent] = dense.path_channel[hop]
                    nxt_slot[parent] = dense.path_slot[hop]
                    absolute[parent] = frozen_next_airing(
                        nxt_slot[parent], absolute[parent], cycle
                    )

        active = active[~done[active]]

    wasted = np.where(abandoned, tuning, tuning - (plen + 1))
    return BatchRecords(
        labels=dense.data_labels,
        target_id=target_id,
        tune_slot=tune,
        access_time=final - tune + 1,
        probe_wait=probe_wait,
        data_wait=final - cycle,
        tuning_time=tuning,
        channel_switches=switches,
        recovered=True,
        lost_buckets=lost,
        corrupt_buckets=corrupt,
        retries=retries,
        wasted_probes=wasted,
        cycles_spent=(final - 1) // cycle + 1,
        abandoned=abandoned,
    )


def frozen_next_airing(slot, after, cycle):
    airing = after + (slot - after) % cycle
    airing[airing == after] += cycle
    return airing


def assert_same_fields(today, frozen):
    """Every field equal, arrays in dtype, shape and value."""
    assert type(today) is type(frozen)
    for field in dataclasses.fields(frozen):
        ours, theirs = getattr(today, field.name), getattr(frozen, field.name)
        if isinstance(theirs, np.ndarray):
            assert ours.dtype == theirs.dtype, field.name
            assert ours.shape == theirs.shape, field.name
            assert np.array_equal(ours, theirs), field.name
        else:
            assert ours == theirs, field.name


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
    """The per-target constants, and every ``DenseProgram`` field."""

    @settings(max_examples=40, **COMMON)
    @given(
        st.integers(min_value=0, max_value=10_000),  # tree seed
        st.integers(min_value=1, max_value=9),  # data count
        st.integers(min_value=1, max_value=3),  # channels
    )
    def test_random_trees(self, seed, data_count, channels):
        program = _tree_program(seed, data_count, channels)
        dense = compile_dense(program)
        assert_same_constants(dense)
        assert_same_fields(dense, frozen_compile_dense(program))

    @settings(max_examples=15, **COMMON)
    @given(
        st.integers(min_value=1, max_value=400),  # items
        st.integers(min_value=1, max_value=4),  # channels
        st.sampled_from(["meta", "sorting", "ptas"]),
        st.floats(min_value=0.0, max_value=1.5),  # zipf theta
        st.integers(min_value=0, max_value=10_000),  # weight seed
    )
    def test_catalog_plans(self, items, channels, method, theta, seed):
        program = _catalog_program(items, channels, method, theta, seed)
        dense = compile_dense(program)
        assert_same_constants(dense)
        assert_same_fields(dense, frozen_compile_dense(program))


def _tree_program(seed, data_count, channels):
    tree = random_tree(np.random.default_rng(seed), data_count, max_fanout=3)
    return compile_program(solve(tree, channels=channels).schedule)


def _catalog_program(items, channels, method, theta, seed):
    labels = [f"K{index:04d}" for index in range(items)]
    weights = list(zipf_weights(np.random.default_rng(seed), items, theta))
    return plan_catalog(labels, weights, channels, method=method).compile()


losses = st.floats(min_value=0.0, max_value=0.6)

air = st.one_of(
    st.builds(  # iid
        FaultConfig, loss=losses,
        corruption=st.floats(min_value=0.0, max_value=0.2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    ),
    st.builds(  # bursts
        FaultConfig, loss=losses,
        corruption=st.floats(min_value=0.0, max_value=0.2),
        burst=st.builds(
            BurstConfig,
            enter_bad=probabilities,
            exit_bad=probabilities,
            loss_bad=losses,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    ),
    st.builds(  # per channel
        FaultConfig, loss=st.lists(losses, min_size=1, max_size=4),
        corruption=st.floats(min_value=0.0, max_value=0.2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    ),
)

policies = st.builds(
    RecoveryPolicy,
    mode=st.sampled_from(["retry-parent", "next-cycle"]),
    max_cycles=st.integers(min_value=2, max_value=8),
)


def assert_same_faulty_batch(program, faults, policy, origin, walk_seed):
    """Today's faulty batch equals the frozen masked loop, column by column."""
    dense = compile_dense(program)
    rng = np.random.default_rng(walk_seed)
    n = 300
    ids = rng.integers(0, dense.n_data, size=n)
    tune = rng.integers(1, dense.cycle_length + 1, size=n)
    tune[: n // 10] = dense.cycle_length  # the cycle's last slot
    injector = FaultInjector(faults).shifted(origin)
    today = run_batch(dense, ids, tune, faults=injector, recovery=policy)
    frozen = frozen_run_recovering(dense, ids, tune, injector, policy)
    assert_same_fields(today, frozen)
    return frozen


class TestFaultyBatch:
    @settings(max_examples=100, **COMMON)
    @given(
        st.integers(min_value=0, max_value=10_000),  # tree seed
        st.integers(min_value=1, max_value=9),  # data count
        st.integers(min_value=1, max_value=3),  # channels
        air,
        policies,
        st.integers(min_value=0, max_value=2_000),  # injector origin
        st.integers(min_value=0, max_value=10_000),  # walk seed
    )
    def test_random_trees(
        self, seed, data_count, channels, faults, policy, origin, walk_seed
    ):
        assert_same_faulty_batch(
            _tree_program(seed, data_count, channels),
            faults, policy, origin, walk_seed,
        )

    @settings(max_examples=40, **COMMON)
    @given(
        st.integers(min_value=1, max_value=400),  # items
        st.integers(min_value=1, max_value=4),  # channels
        st.sampled_from(["meta", "sorting", "ptas"]),
        st.integers(min_value=0, max_value=10_000),  # weight seed
        air,
        policies,
        st.integers(min_value=0, max_value=2_000),  # injector origin
        st.integers(min_value=0, max_value=10_000),  # walk seed
    )
    def test_catalog_plans(
        self, items, channels, method, seed, faults, policy, origin, walk_seed
    ):
        assert_same_faulty_batch(
            _catalog_program(items, channels, method, 0.95, seed),
            faults, policy, origin, walk_seed,
        )

    @pytest.mark.parametrize("mode", ["retry-parent", "next-cycle"])
    def test_walks_abandoned_mid_descent(self, mode):
        # Heavy loss and a two-cycle deadline: most walks read the root,
        # fail a read below it and give up before their target.
        program = _catalog_program(120, 3, "meta", 0.95, 5)
        policy = RecoveryPolicy(mode=mode, max_cycles=2)
        frozen = assert_same_faulty_batch(
            program, FaultConfig(loss=0.5, corruption=0.1, seed=6),
            policy, 0, 11,
        )
        stuck = frozen.abandoned & (frozen.probe_wait > 0)
        assert stuck.sum() > 100
        assert (frozen.retries[stuck] > 0).all()

    @pytest.mark.parametrize("mode", ["retry-parent", "next-cycle"])
    @pytest.mark.parametrize("root_slot", [1, 3, 6])
    def test_root_late_in_the_cycle_under_a_dead_probe_channel(
        self, mode, root_slot
    ):
        # Channel 1 loses every slot, so no probe succeeds and every walk
        # descends from a root airing past the deadline, at most a cycle
        # plus the root's slot past it. The other channels never fail,
        # so a read off the wrong channel's fates would look like a
        # delivered root; each walk must be abandoned at the deadline.
        tree = from_spec([("A", 3.0), ("B", 2.0), ("C", 1.0)])
        placement = {tree.root: (1, root_slot)}
        for channel, child in enumerate(tree.root.children, start=1):
            placement[child] = (channel, root_slot + 1)
        program = compile_program(BroadcastSchedule(tree, placement, channels=3))
        frozen = assert_same_faulty_batch(
            program, FaultConfig(loss=[1.0, 0.0]),
            RecoveryPolicy(mode=mode, max_cycles=2), 0, 3,
        )
        assert frozen.abandoned.all()
        assert (frozen.access_time == 2 * program.cycle_length
                - frozen.tune_slot + 1).all()

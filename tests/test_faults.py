"""Tests for the seeded unreliable-channel model (:mod:`repro.faults`).

The load-bearing property is *order-independent determinism*: the fate
of every (channel, absolute slot) airing is a pure function of the
``FaultConfig`` — query order, interleaving, block-boundary crossings
and shifted views must never change the pattern. The recovery walk's
p=0 differential invariant and every seeded experiment stand on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    CORRUPT,
    FATE_CORRUPT,
    FATE_LOST,
    FATE_OK,
    LOST,
    OK,
    BurstConfig,
    FaultConfig,
    FaultInjector,
    corrupt_frame,
)
from repro.broadcast.pointers import compile_program
from repro.core.optimal import solve
from repro.io.wire import encode_program
from repro.tree.builders import paper_example_tree


class TestFaultConfig:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            FaultConfig(loss=1.5)
        with pytest.raises(ValueError):
            FaultConfig(loss=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(corruption=2.0)
        with pytest.raises(ValueError):
            FaultConfig(loss=[0.1, 1.2])
        with pytest.raises(ValueError):
            FaultConfig(loss=[])
        with pytest.raises(ValueError):
            BurstConfig(enter_bad=-0.5)

    def test_per_channel_losses_clamp_to_last_entry(self):
        config = FaultConfig(loss=[0.1, 0.3])
        assert config.loss_for(1) == 0.1
        assert config.loss_for(2) == 0.3
        assert config.loss_for(9) == 0.3  # beyond the sequence: last entry

    def test_is_lossless(self):
        assert FaultConfig().is_lossless
        assert FaultConfig(loss=0.0, corruption=0.0).is_lossless
        assert FaultConfig(loss=[0.0, 0.0]).is_lossless
        assert not FaultConfig(loss=0.01).is_lossless
        assert not FaultConfig(corruption=0.01).is_lossless
        assert not FaultConfig(loss=[0.0, 0.2]).is_lossless
        # A burst chain that can enter a lossy bad state is lossy even
        # at zero good-state loss.
        assert not FaultConfig(burst=BurstConfig()).is_lossless
        assert FaultConfig(
            burst=BurstConfig(enter_bad=0.0, loss_bad=0.9)
        ).is_lossless


class TestDeterminism:
    def test_same_seed_same_pattern(self):
        config = FaultConfig(loss=0.3, corruption=0.1, seed=42)
        one = FaultInjector(config).pattern(1, 2000)
        two = FaultInjector(config).pattern(1, 2000)
        assert one == two

    def test_different_seeds_differ(self):
        one = FaultInjector(FaultConfig(loss=0.3, seed=1)).pattern(1, 500)
        two = FaultInjector(FaultConfig(loss=0.3, seed=2)).pattern(1, 500)
        assert one != two

    def test_channels_have_independent_streams(self):
        injector = FaultInjector(FaultConfig(loss=0.3, seed=5))
        assert injector.pattern(1, 500) != injector.pattern(2, 500)

    def test_query_order_is_irrelevant(self):
        config = FaultConfig(loss=0.25, corruption=0.05, seed=9)
        forward = FaultInjector(config)
        scattered = FaultInjector(config)
        slots = [1500, 3, 700, 1, 512, 513, 64, 2048]
        scattered_answers = {
            (channel, slot): scattered.outcome(channel, slot)
            for slot in slots
            for channel in (2, 1)
        }
        for channel in (1, 2):
            for slot in slots:
                assert (
                    forward.outcome(channel, slot)
                    == scattered_answers[(channel, slot)]
                )

    def test_block_boundary_crossing_is_seamless(self):
        """Asking past the 512-slot block first must not reshuffle it."""
        config = FaultConfig(loss=0.4, seed=11)
        sequential = FaultInjector(config).pattern(1, 1100)
        jumper = FaultInjector(config)
        jumper.outcome(1, 1100)  # forces two block extensions at once
        assert jumper.pattern(1, 1100) == sequential

    def test_burst_state_survives_block_extension(self):
        config = FaultConfig(
            loss=0.05, burst=BurstConfig(enter_bad=0.2, exit_bad=0.1), seed=3
        )
        sequential = FaultInjector(config).pattern(1, 1536)
        jumper = FaultInjector(config)
        jumper.outcome(1, 1536)
        assert jumper.pattern(1, 1536) == sequential

    def test_shifted_view_addresses_the_same_air(self):
        base = FaultInjector(FaultConfig(loss=0.3, seed=7))
        view = base.shifted(100)
        for slot in (1, 50, 600):
            assert view.outcome(1, slot) == base.outcome(1, slot + 100)
        # Views share the cache: outcomes materialised through one are
        # visible (identical) through the other.
        nested = view.shifted(23)
        assert nested.origin == 123
        assert nested.outcome(2, 1) == base.outcome(2, 124)

    def test_codes_match_the_pattern(self):
        injector = FaultInjector(
            FaultConfig(loss=0.3, corruption=0.2, seed=21)
        ).shifted(300)
        codes = injector.codes(2, 900)
        assert codes.dtype == np.int8
        fates = {OK: FATE_OK, LOST: FATE_LOST, CORRUPT: FATE_CORRUPT}
        assert codes.tolist() == [
            fates[fate] for fate in injector.pattern(2, 900)
        ]
        assert injector.codes(2, 0).size == 0

    def test_lossless_config_never_draws(self):
        injector = FaultInjector(FaultConfig(loss=0.0, seed=1))
        assert injector.pattern(1, 50) == [OK] * 50
        assert injector._outcomes == {}  # no streams were materialised

    def test_rejects_zero_based_queries(self):
        injector = FaultInjector(FaultConfig(loss=0.1))
        with pytest.raises(ValueError):
            injector.outcome(0, 5)
        with pytest.raises(ValueError):
            injector.outcome(1, 0)


class TestGrowth:
    def test_a_stream_grown_in_steps_draws_each_slot_once(self, monkeypatch):
        """Growth reuses the channel's generator: linear, not quadratic."""
        drawn = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, shape):
                drawn.append(shape[0] * shape[1])
                return self.rng.random(shape)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        config = FaultConfig(
            loss=0.2, corruption=0.1, burst=BurstConfig(), seed=23
        )
        stepped = FaultInjector(config)
        for step in range(1, 60):
            # Views share the generator as they share the stream; this
            # one asks for absolute slot 97 * step.
            stepped.shifted(step).outcome(1, 96 * step + 1)
        grown = len(stepped._outcomes[1])
        assert grown > 10 * 512
        assert sum(drawn) == 3 * grown
        monkeypatch.undo()
        assert stepped.pattern(1, grown) == (
            FaultInjector(config).pattern(1, grown)
        )


class TestRates:
    def test_iid_loss_rate_tracks_the_config(self):
        injector = FaultInjector(FaultConfig(loss=0.2, seed=13))
        pattern = injector.pattern(1, 20_000)
        rate = pattern.count(LOST) / len(pattern)
        assert rate == pytest.approx(0.2, abs=0.02)

    def test_burst_mode_clusters_losses(self):
        """Same stationary rate, longer loss runs than i.i.d."""

        def mean_run(pattern):
            runs, current = [], 0
            for fate in pattern:
                if fate == LOST:
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            if current:
                runs.append(current)
            return sum(runs) / len(runs) if runs else 0.0

        burst = FaultInjector(
            FaultConfig(
                loss=0.02,
                burst=BurstConfig(enter_bad=0.05, exit_bad=0.25, loss_bad=0.8),
                seed=17,
            )
        ).pattern(1, 20_000)
        iid_rate = burst.count(LOST) / len(burst)
        iid = FaultInjector(FaultConfig(loss=iid_rate, seed=17)).pattern(
            2, 20_000
        )
        assert mean_run(burst) > mean_run(iid)

    def test_corruption_is_distinct_from_loss(self):
        pattern = FaultInjector(
            FaultConfig(loss=0.1, corruption=0.1, seed=19)
        ).pattern(1, 10_000)
        assert pattern.count(CORRUPT) > 0
        assert pattern.count(LOST) > 0


class TestWireTransmission:
    def _frames(self):
        program = compile_program(
            solve(paper_example_tree(), channels=2).schedule
        )
        return encode_program(program)

    def test_corrupt_frame_always_changes_exactly_one_byte(self):
        rng = np.random.default_rng(3)
        frame = self._frames()[0][0]
        for _ in range(50):
            damaged = corrupt_frame(frame, rng)
            assert len(damaged) == len(frame)
            diffs = sum(a != b for a, b in zip(frame, damaged))
            assert diffs == 1

    def test_corrupt_frame_keeps_empty_frames(self):
        rng = np.random.default_rng(4)
        assert corrupt_frame(b"", rng) == b""

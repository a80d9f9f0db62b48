"""Zero-downtime cutover: the station's version timeline and the walk.

Three layers, bottom up:

* the station's segment timeline — activation slots validated against
  the outgoing segment's cycle grid, airings stamped with the serving
  version, atomicity at the boundary;
* the sans-io :class:`~repro.client.walk.PointerWalk` riding a cutover
  through :meth:`observe_version` — restart-from-root accounting and
  the ``abandon`` policy;
* the full async harness (:func:`repro.sched.harness.run_cutover_loadtest`)
  whose checks are the subsystem's acceptance gates.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.client.protocol import RecoveryPolicy
from repro.client.walk import PointerWalk
from repro.faults import FaultConfig
from repro.io.wire import WireFormatError, decode_bucket
from repro.net.harness import build_demo_plan
from repro.net.station import BroadcastStation
from repro.obs.events import RingBufferTracer
from repro.perf import PerfRecorder
from repro.sched.harness import run_cutover_loadtest


@pytest.fixture(scope="module")
def program_a():
    return build_demo_plan(items=10, channels=2, theta=0.95).compile()


@pytest.fixture(scope="module")
def program_b():
    return build_demo_plan(items=10, channels=2, theta=0.35).compile()


class TestStationTimeline:
    def test_versions_must_increase(self, program_a, program_b):
        station = BroadcastStation(program_a, schedule_version=3)
        with pytest.raises(ValueError, match="must increase"):
            station.publish(program_b, version=3)

    def test_channel_count_is_fixed(self, program_a):
        other = build_demo_plan(items=10, channels=3).compile()
        station = BroadcastStation(program_a, schedule_version=1)
        with pytest.raises(ValueError, match="channel count is fixed"):
            station.publish(other, version=2)

    def test_activation_must_sit_on_the_cycle_grid(
        self, program_a, program_b
    ):
        station = BroadcastStation(program_a, schedule_version=1)
        with pytest.raises(ValueError, match="not a cycle boundary"):
            station.publish(
                program_b, version=2, activate_at_slot=program_a.cycle_length
            )
        slot = station.publish(
            program_b,
            version=2,
            activate_at_slot=1 + program_a.cycle_length,
        )
        assert slot == 1 + program_a.cycle_length

    def test_activation_cannot_precede_an_answered_slot(
        self, program_a, program_b
    ):
        station = BroadcastStation(program_a, schedule_version=1)
        boundary = 1 + program_a.cycle_length
        station.airing(1, boundary + 2)  # the frontier is past the boundary
        with pytest.raises(ValueError, match="already answered"):
            station.publish(program_b, version=2, activate_at_slot=boundary)

    def test_airing_is_stamped_and_atomic_at_the_boundary(
        self, program_a, program_b
    ):
        station = BroadcastStation(program_a, schedule_version=1)
        boundary = 1 + 2 * program_a.cycle_length
        station.publish(program_b, version=2, activate_at_slot=boundary)
        before = station.airing(1, boundary - 1)
        after = station.airing(1, boundary)
        assert before.schedule_version == 1
        assert after.schedule_version == 2
        # The new segment restarts its plan from slot 1 of its own cycle.
        assert after.payload == station.airing(
            1, boundary + program_b.cycle_length
        ).payload

    def test_default_activation_is_the_next_boundary(
        self, program_a, program_b
    ):
        station = BroadcastStation(program_a, schedule_version=1)
        station.airing(1, 5)
        slot = station.publish(program_b, version=2)
        assert slot == 1 + program_a.cycle_length
        assert (slot - 1) % program_a.cycle_length == 0

    def test_publish_emits_schedule_activated(self, program_a, program_b):
        tracer = RingBufferTracer()
        station = BroadcastStation(
            program_a, schedule_version=1, tracer=tracer
        )
        slot = station.publish(program_b, version=2)
        events = [e for e in tracer.events if e.kind == "schedule_activated"]
        assert len(events) == 1
        assert events[0].version == 2
        assert events[0].activate_slot == slot
        assert events[0].cycle_length == program_b.cycle_length


def drive(walk: PointerWalk, station: BroadcastStation) -> int:
    """Run a sans-io walk against a station; returns airings consumed."""
    reads = 0
    while (listen := walk.next_listen()) is not None:
        air = station.airing(listen.channel, listen.absolute_slot)
        reads += 1
        if walk.observe_version(air.schedule_version):
            continue  # the cutover consumed this read
        if air.lost:
            walk.on_loss()
            continue
        try:
            bucket = decode_bucket(air.payload)
        except WireFormatError:
            walk.on_loss(corrupt=True)  # the CRC caught the damage
            continue
        walk.deliver(bucket)
    return reads


class TestWalkCutover:
    def test_unversioned_air_is_ignored(self):
        walk = PointerWalk("K0", 1, 10)
        assert walk.observe_version(0) is False
        assert walk.version is None

    def test_first_version_is_adopted_silently(self):
        walk = PointerWalk("K0", 1, 10)
        assert walk.observe_version(4) is False
        assert walk.observe_version(4) is False
        assert walk.version == 4

    def test_walk_rides_a_cutover_and_completes(self, program_a, program_b):
        station = BroadcastStation(program_a, schedule_version=1)
        boundary = 1 + program_a.cycle_length
        station.publish(program_b, version=2, activate_at_slot=boundary)
        walk = PointerWalk(
            "K007",
            1,
            program_a.cycle_length,
            policy=RecoveryPolicy(max_cycles=32),
        )
        reads = drive(walk, station)
        record = walk.result
        assert not record.abandoned
        assert record.payload == b"item:K007"
        assert record.cutovers == 1
        assert record.retries >= 1  # the cutover counts as a retry
        # Frame accounting: every airing consumed registered one read.
        assert record.tuning_time == reads
        assert walk.version == 2

    def test_abandon_policy_gives_up_at_the_cutover(
        self, program_a, program_b
    ):
        station = BroadcastStation(program_a, schedule_version=1)
        boundary = 1 + program_a.cycle_length
        station.publish(program_b, version=2, activate_at_slot=boundary)
        walk = PointerWalk(
            "K007",
            1,
            program_a.cycle_length,
            policy=RecoveryPolicy(max_cycles=32, cutover="abandon"),
        )
        drive(walk, station)
        record = walk.result
        assert record.abandoned
        assert record.cutovers == 1

    def test_cutover_policy_spelling_is_validated(self):
        with pytest.raises(ValueError, match="cutover"):
            RecoveryPolicy(cutover="panic")

    def test_cutover_detected_event_carries_the_versions(
        self, program_a, program_b
    ):
        tracer = RingBufferTracer()
        station = BroadcastStation(program_a, schedule_version=1)
        station.publish(
            program_b, version=2, activate_at_slot=1 + program_a.cycle_length
        )
        walk = PointerWalk(
            "K003",
            2,
            program_a.cycle_length,
            policy=RecoveryPolicy(max_cycles=32),
            tracer=tracer,
            walk_id=9,
        )
        drive(walk, station)
        events = [e for e in tracer.events if e.kind == "cutover_detected"]
        assert len(events) == 1
        assert events[0].from_version == 1
        assert events[0].to_version == 2
        assert events[0].walk == 9


class TestCutoverLoadtest:
    def test_the_acceptance_gates_hold(self, tmp_path):
        perf = PerfRecorder()
        record = asyncio.run(
            run_cutover_loadtest(
                tuners=24,
                items=12,
                channels=2,
                store_dir=tmp_path,
                perf=perf,
            )
        )
        assert record["ok"], record["checks"]
        assert record["checks"] == {
            "zero_unaccounted_frames": True,
            "zero_abandoned_walks": True,
            "cutovers_observed": True,
            "payloads_intact": True,
            "rollback_byte_exact": True,
        }
        # Every walk crossed the replan (tuned into cycle 1 of plan A,
        # descended into cycle 2 which airs plan B).
        assert record["result"]["cutovers"] >= record["config"]["tuners"]
        assert record["result"]["unaccounted_frames"] == 0
        assert perf.counters["net.tuner.cutovers"] > 0
        # The store kept the whole history: baseline, replan, rollback.
        versions = record["result"]["store"]["versions"]
        assert [v["version"] for v in versions] == [1, 2, 3]
        assert versions[0]["content_id"] == versions[2]["content_id"]


class TestCutoverUnderLoss:
    """Walks restarted onto a plan with another cycle length, on lossy air.

    After a restart a walk must recover in the new plan's cycle: a retry
    counted in the retired plan's cycle lands on the wrong bucket.
    """

    ITEMS = 24

    @pytest.fixture(scope="class")
    def programs(self):
        short = build_demo_plan(items=self.ITEMS, channels=2, fanout=3)
        long = build_demo_plan(items=self.ITEMS, channels=2, fanout=2,
                               theta=0.35)
        programs = short.compile(), long.compile()
        assert programs[0].cycle_length != programs[1].cycle_length
        return programs

    def station(self, programs, seed):
        short, long = programs
        station = BroadcastStation(
            short,
            schedule_version=1,
            faults=FaultConfig(loss=0.05, corruption=0.01, seed=seed),
        )
        replan = station.publish(
            long, version=2, activate_at_slot=1 + 2 * short.cycle_length
        )
        station.publish(
            short, version=3, activate_at_slot=replan + 3 * long.cycle_length
        )
        return station

    @pytest.mark.parametrize("mode", ["retry-parent", "next-cycle"])
    def test_every_walk_completes_with_its_payload(self, programs, mode):
        policy = RecoveryPolicy(mode=mode, max_cycles=64)
        cycle = programs[0].cycle_length
        restarted = 0
        for seed in range(4):
            station = self.station(programs, seed)
            for index in range(self.ITEMS):
                key = f"K{index:03d}"
                # Tune in during the first cycle, so every walk reads
                # across the replan, and some across the rollback too.
                walk = PointerWalk(key, index % cycle + 1, cycle,
                                   policy=policy)
                reads = drive(walk, station)
                record = walk.result
                assert not record.abandoned, (seed, key)
                assert record.payload == f"item:{key}".encode(), (seed, key)
                assert record.tuning_time == reads
                restarted += record.cutovers > 0
        assert restarted > 0

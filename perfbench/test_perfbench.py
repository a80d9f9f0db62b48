"""Self-tests of the benchmark at tiny scale.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import air, checks, common, params, replan, replay, run  # noqa: E402
from repro.client.walk import LookupFailed, WalkResult  # noqa: E402
from repro.client.protocol import RecoveryPolicy  # noqa: E402
from repro.faults import FaultConfig  # noqa: E402
from repro.net.harness import build_demo_plan  # noqa: E402
from repro.net.station import BroadcastStation  # noqa: E402
from repro.sched.store import ScheduleStore  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Every workload shrunk to run in a few seconds."""
    for table in (params.AIR_STEADY, params.AIR_CHURN, params.REPLAN_STREAM):
        monkeypatch.setitem(table, "setup_repeats", 1)
        monkeypatch.setitem(table, "sim_walks", 500)
    monkeypatch.setitem(params.AIR_CHURN, "items", 60)
    monkeypatch.setitem(params.AIR_CHURN, "timelines", 2)
    monkeypatch.setitem(params.AIR_CHURN, "controls", 1)
    monkeypatch.setitem(params.AIR_CHURN, "defect_stations", 2)
    monkeypatch.setitem(params.AIR_CHURN, "defect_walks", 40)
    monkeypatch.setattr(air, "WINDOWS", 2)
    monkeypatch.setitem(params.REPLAN_STREAM, "catalogs", [(2, 8, 0.95), (1, 14, 0.95),
                                                          (1, 60, 1.2), (1, 60, 0.35),
                                                          (1, 2100, 0.95)])
    monkeypatch.setitem(params.REPLAN_STREAM, "walks_per_window", 5)
    for module in (air, replan):
        monkeypatch.setattr(module, "CHECK_WALKS", 50)
    monkeypatch.setattr(common, "import_seconds", lambda modules: 0.25)


def _run(workload: str, seed: int, trace: bool) -> dict:
    result, _ = run.run(workload, seed, 4.0, trace)
    json.dumps(result)
    return result


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(tiny, workload, trace):
    result = _run(workload, 1, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in wanted]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_changes_inputs_but_not_metric_names(tiny):
    first, second = _run("replan-stream", 1, False), _run("replan-stream", 2, False)
    assert list(first["metrics"]) == list(second["metrics"])
    assert first["metrics"]["data_wait"]["value"] != second["metrics"]["data_wait"]["value"]
    assert common.rng_for(1, "trace").random() != common.rng_for(2, "trace").random()
    assert common.rng_for(1, "trace").random() == common.rng_for(1, "trace").random()


def test_air_churn_fails_no_operation_and_reproduces_the_defect_per_seed(tiny):
    result, outcome = run.run("air-churn", 1, 4.0, False)
    assert result["failed"] == 0
    _, again = run.run("air-churn", 1, 4.0, False)
    assert outcome.defect == again.defect
    assert outcome.defect[1] == params.AIR_CHURN["defect_walks"]


@pytest.fixture(scope="module")
def demo():
    plan = build_demo_plan()
    return plan, plan.compile()


def _honest_walk(program, key: str, tune: int) -> WalkResult:
    ref = checks.WalkOracle(program)(key, tune)
    return WalkResult(
        key=key, tune_slot=tune, access_time=ref.access_time, probe_wait=ref.probe_wait,
        data_wait=ref.data_wait, tuning_time=ref.tuning_time,
        channel_switches=ref.channel_switches, payload=b"item:" + key.encode())


def test_walk_checks_catch_a_tampered_walk_record(demo):
    _, program = demo
    key = program.schedule.tree.data_nodes()[0].label
    honest = _honest_walk(program, key, 1)
    oracle = checks.WalkOracle(program)
    assert checks.walks_match(oracle, [(key, 1, honest)]) == []
    assert checks.payloads_intact([(key, 1, honest)]) == []
    slower = dataclasses.replace(honest, access_time=honest.access_time + 1)
    assert checks.walks_match(oracle, [(key, 1, slower)])
    wrong_item = dataclasses.replace(honest, payload=b"item:other")
    assert checks.payloads_intact([(key, 1, wrong_item)])
    assert checks.walks_completed([(key, 1, honest, None)]) == []
    abandoned = dataclasses.replace(honest, abandoned=True)
    assert checks.walks_completed([(key, 1, abandoned, None)])
    assert checks.walks_completed([(key, 1, None, LookupFailed("no such key"))])
    assert checks.frames_accounted("station", 10, 10) == []
    assert checks.frames_accounted("station", 10, 9)


def test_replay_leaves_the_station_fault_counters_as_the_live_run_left_them(demo):
    _, program = demo
    station = BroadcastStation(program, faults=FaultConfig(loss=0.3, corruption=0.1, seed=3))
    (log,) = replay.attach_logs([station])
    replay.detach_logs([station])
    keys = [leaf.label for leaf in program.schedule.tree.data_nodes()]
    walks = [(station, key, tune) for key in keys for tune in (1, 5)]
    costs = replay.layer_costs(walks, RecoveryPolicy(), [(station, log)])
    assert costs["frames_per_walk"] > 0
    assert station.perf.counters == {}


def test_plan_check_catches_a_cost_that_is_not_formula_1(demo):
    plan, _ = demo
    assert checks.plan_sound(plan) == []
    assert checks.plan_sound(dataclasses.replace(plan, cost=plan.cost + 0.5))


def test_store_check_catches_a_corrupted_object(demo, tmp_path):
    plan, _ = demo
    store = ScheduleStore(tmp_path)
    record = store.publish(plan)
    assert checks.store_round_trip(store, record) == []
    (stored,) = (tmp_path / "objects").glob("*.json")
    stored.write_bytes(stored.read_bytes().replace(b'"cost"', b'"cosT"', 1))
    assert checks.store_round_trip(ScheduleStore(tmp_path), record)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "air-steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

"""The bench harness: timing primitive, suite registry, committed history."""

from __future__ import annotations

import dataclasses
import os

import pytest

import repro.core.bench
import repro.engine.bench
import repro.net.harness
from repro import perf
from repro.bench import (
    HISTORY_DIR,
    SUITES,
    find_baseline,
    history_entry,
    load_history,
)
from repro.cli import main
from repro.perf import measure

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A small config per suite: every code path of the suite's run, in
#: a fraction of its fixed config's time.
SMALL_CONFIGS = {
    "search-overhaul": {"repeats": 1},
    "server-faults": {
        "items": 8, "channels": 2, "cycles": 6,
        "mean_requests_per_cycle": 10.0, "seed": 7, "planner": "budgeted",
    },
    "net-loadtest": {
        **SUITES["net-loadtest"].config, "items": 10, "channels": 2,
        "tuners": 12,
    },
    "engine-batch": {
        **SUITES["engine-batch"].config, "items": 12, "walks": 4000,
        "sample": 300, "repeats": 1, "catalog_items": 60,
        "catalog_walks": 3000, "catalog_sample": 200,
    },
    "approx-frontier": {
        "sizes": [60, 240], "channels": 3, "fanout": 3, "theta": 0.95,
        "seed": 99,
    },
    "sched-bench": {
        "versions": 4, "items": 10, "channels": 2, "fanout": 3, "seed": 5,
    },
    "cluster-loadtest": {
        **SUITES["cluster-loadtest"].config, "items": 16,
        "shard_counts": [1, 2], "tuners": 20, "slot_duration": 0.0,
    },
    # No knobs: the full run (~4 s), every check of which
    # TestPaperSuite asserts true.
    "paper": {},
}


class FakeClock:
    """A clock that only moves when a timed call says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def costing(self, durations):
        """A callable whose n-th call takes ``durations[n % len]`` s."""
        calls = []

        def fn(*args):
            self.now += durations[len(calls) % len(durations)]
            calls.append(args)
            return len(calls)

        return fn, calls


class TestTimingPrimitive:
    def test_honours_min_duration_and_repeats(self, monkeypatch):
        monkeypatch.setattr(perf, "MIN_TIME", 0.1)
        clock = FakeClock()
        fn, calls = clock.costing([0.03])
        result, timing = measure(fn, repeats=3, clock=clock)
        # 0.03 s per call: four calls reach 0.1 s in every sample.
        assert timing.repeats == 3
        assert timing.calls == len(calls) == 12
        assert result == 12
        assert timing.min == pytest.approx(0.03)
        assert timing.median == pytest.approx(0.03)
        assert timing.iqr == pytest.approx(0.0)

    def test_a_slow_call_is_one_sample(self, monkeypatch):
        monkeypatch.setattr(perf, "MIN_TIME", 0.1)
        clock = FakeClock()
        fn, calls = clock.costing([0.5, 0.7, 0.2, 0.9, 0.4])
        _, timing = measure(fn, repeats=5, clock=clock)
        assert timing.calls == 5
        assert timing.min == pytest.approx(0.2)
        assert timing.median == pytest.approx(0.5)
        assert timing.iqr == pytest.approx(0.7 - 0.4)
        assert timing.min <= timing.median
        assert timing.iqr >= 0.0

    def test_spread_is_ordered_for_uneven_calls(self, monkeypatch):
        monkeypatch.setattr(perf, "MIN_TIME", 0.04)
        clock = FakeClock()
        fn, _ = clock.costing([0.011, 0.002, 0.037, 0.005, 0.023, 0.001])
        _, timing = measure(fn, repeats=7, clock=clock)
        assert 0.0 < timing.min <= timing.median
        assert timing.iqr >= 0.0
        assert timing.repeats == 7

    def test_setup_runs_untimed_before_every_call(self, monkeypatch):
        monkeypatch.setattr(perf, "MIN_TIME", 0.1)
        clock = FakeClock()
        fn, calls = clock.costing([0.06])
        prepared = []

        def setup():
            clock.now += 10.0  # never charged to the call
            prepared.append(len(prepared))
            return prepared[-1]

        _, timing = measure(fn, setup=setup, repeats=2, clock=clock)
        assert timing.min == pytest.approx(0.06)
        assert calls == [(n,) for n in range(len(calls))]
        assert len(prepared) == len(calls) == 4

    def test_defaults_are_the_module_constants(self, monkeypatch):
        monkeypatch.setattr(perf, "MIN_TIME", 0.1)
        monkeypatch.setattr(perf, "REPEATS", 4)
        clock = FakeClock()
        fn, calls = clock.costing([0.06])
        _, timing = measure(fn, clock=clock)
        assert timing.repeats == 4
        assert timing.calls == len(calls) == 8

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            measure(lambda: None, repeats=0)


def _recording_measure(monkeypatch, module):
    """Patch ``module.measure`` to keep every Timing it returns."""
    seen = []

    def recording(fn, **options):
        result, timing = measure(fn, **options)
        seen.append(timing)
        return result, timing

    monkeypatch.setattr(module, "measure", recording)
    return seen


class TestHeadlineTimingsAreTheMin:
    def test_search_seconds_sum_the_per_case_mins(self, monkeypatch):
        seen = _recording_measure(monkeypatch, repro.core.bench)
        result = SUITES["search-overhaul"].run({"repeats": 2})
        # Per case: seed, best-first, dfs-bnb, in that order.
        assert len(seen) == 3 * len(result["detail"]["cases"])
        assert all(timing.repeats == 2 for timing in seen)
        metrics = result["metrics"]
        assert metrics["best_first_seconds"] == pytest.approx(
            sum(timing.min for timing in seen[1::3]), rel=1e-12
        )
        assert metrics["dfs_bnb_seconds"] == pytest.approx(
            sum(timing.min for timing in seen[2::3]), rel=1e-12
        )

    def test_engine_throughputs_are_walks_over_the_min(self, monkeypatch):
        seen = _recording_measure(monkeypatch, repro.engine.bench)
        config = SMALL_CONFIGS["engine-batch"]
        result = SUITES["engine-batch"].run(config)
        batch, faulty, scalar, catalog_compile, catalog_faulty = seen
        metrics = result["metrics"]
        assert metrics["batch_walks_per_second"] == (
            config["walks"] / batch.min
        )
        assert metrics["faulty_walks_per_second"] == (
            config["walks"] / faulty.min
        )
        assert result["timings"]["batch_seconds"] == batch.to_dict()
        assert result["timings"]["scalar_seconds"]["min"] == scalar.min
        assert metrics["catalog_faulty_walks_per_second"] == (
            config["catalog_walks"] / catalog_faulty.min
        )
        assert metrics["catalog_compile_seconds"] == catalog_compile.min

    def test_net_throughput_times_the_fleet_without_parity(
        self, monkeypatch
    ):
        harness = repro.net.harness
        parity_flags = []
        real_loadtest = harness.run_loadtest

        def spying(program, **options):
            parity_flags.append(options["check_parity"])
            return real_loadtest(program, **options)

        monkeypatch.setattr(harness, "run_loadtest", spying)
        monkeypatch.setattr(perf, "REPEATS", 3)
        seen = _recording_measure(monkeypatch, harness)
        config = SMALL_CONFIGS["net-loadtest"]
        result = SUITES["net-loadtest"].run(config)
        (timing,) = seen
        # Three timed fleets without the replay, then one untimed
        # replay run for the metrics and checks.
        assert parity_flags == [False, False, False, True]
        assert result["metrics"]["walks_per_second"] == (
            config["tuners"] / timing.min
        )
        assert result["checks"]["parity_exact"]


class TestCommittedHistory:
    """The registry and ``benchmarks/history`` must agree, in tier-1."""

    @pytest.fixture(scope="class")
    def histories(self):
        return {
            name: load_history(
                os.path.join(REPO_ROOT, HISTORY_DIR, f"{name}.jsonl")
            )
            for name in SUITES
        }

    def test_one_history_file_per_registered_suite(self):
        files = sorted(os.listdir(os.path.join(REPO_ROOT, HISTORY_DIR)))
        assert files == sorted(f"{name}.jsonl" for name in SUITES)

    def test_no_two_suites_declare_the_same_metric(self):
        names = [
            f"{suite.name}.{metric.name}"
            for suite in SUITES.values()
            for metric in suite.metrics
        ]
        assert len(names) == len(set(names))
        for suite in SUITES.values():
            short = [metric.name for metric in suite.metrics]
            assert len(short) == len(set(short)), suite.name

    def test_a_baseline_exists_at_every_registered_config(self, histories):
        for name, suite in SUITES.items():
            assert find_baseline(suite, histories[name]) is not None, name

    def test_every_declared_metric_is_in_the_baseline(self, histories):
        for name, suite in SUITES.items():
            baseline = find_baseline(suite, histories[name])
            for metric in suite.metrics:
                assert f"{name}.{metric.name}" in baseline["metrics"]

    def test_entries_are_in_timestamp_order(self, histories):
        for history in histories.values():
            stamps = [entry["timestamp"] for entry in history]
            assert stamps == sorted(stamps)


class TestPaperSuite:
    """The paper's figures, at the registered config, in tier-1."""

    def test_reproduces_the_committed_baseline_exactly(self):
        suite = SUITES["paper"]
        result = suite.run(dict(suite.config))
        failed = [name for name, ok in result["checks"].items() if not ok]
        assert failed == []
        history = os.path.join(REPO_ROOT, HISTORY_DIR, "paper.jsonl")
        baseline = find_baseline(suite, load_history(history))
        document = {"rev": None, "timestamp": None, "timings": {}, **result}
        entry = history_entry(suite, document)
        assert len(entry["metrics"]) == len(suite.metrics)
        assert entry["metrics"] == baseline["metrics"]


class TestChecksReachTheGate:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_a_failed_check_fails_the_run(
        self, name, monkeypatch, tmp_path, capsys
    ):
        suite = SUITES[name]
        forced = []

        def failing_run(config):
            # The forced check is the run's only failure: a check that
            # fails on its own at the small config (a wall-clock ratio,
            # say) must not decide which check the gate names.
            result = suite.run(config)
            first = sorted(result["checks"])[0]
            forced.append(first)
            result["checks"] = {
                name: name != first for name in result["checks"]
            }
            return result

        monkeypatch.setitem(
            SUITES,
            name,
            dataclasses.replace(
                suite, config=SMALL_CONFIGS[name], run=failing_run
            ),
        )
        monkeypatch.chdir(tmp_path)
        assert main(["bench", name, "--record"]) == 1
        out = capsys.readouterr().out
        assert (
            f"first regressed metric: checks.{name}.{forced[0]}" in out
        )

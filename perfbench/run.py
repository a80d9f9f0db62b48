"""The broadcast pipeline's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload air-steady --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics named in ``BENCHMARK.json``, with times and rates
scaled to the reference host's speed window by window
(``common.HostSpeed``); ``--trace
1`` records spans, replays the air path layer by layer, and reports the
per-layer metrics instead (spans are written under ``.perfbench/``). The exit code
is 1 when an output check fails and 2 when the program cannot be found.
See ``perfbench/NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("air-steady", "air-churn", "replan-stream")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, object]:
    """Run one workload; returns the result line and the raw outcome."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import air, replan
    from perfbench.common import WORK, Spans, peak_rss_mb

    runner = {
        "air-steady": air.run_air_steady,
        "air-churn": air.run_air_churn,
        "replan-stream": replan.run_replan_stream,
    }[workload]
    spec = load_spec()
    spans = Spans(on=trace)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        outcome = runner(seed, seconds, spans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured = dict(outcome.metrics)
    measured["peak_rss_mb"] = peak_rss_mb()
    measured["ok_ratio"] = (outcome.attempted - outcome.failed) / outcome.attempted
    measured["bench.host_slowdown"] = outcome.host.slowdown()
    if trace:
        spans.write(WORK / f"spans-{workload}-seed{seed}.jsonl")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            if not trace:
                raise KeyError(f"{workload} did not measure {name}")
            measured[name] = 0.0  # a layer this workload does not exercise
        metrics[name] = {"value": float(measured[name]), "unit": entry["unit"]}
    correct = not any(outcome.checks.values())
    return {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }, outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, failures in outcome.checks.items():
        for failure in failures:
            print(f"check {name} FAILED: {failure}", file=sys.stderr)
    if outcome.errors:
        print(f"failed operations by exception: {outcome.errors}", file=sys.stderr)
    if outcome.defect is not None:
        print("known defect, cutover under loss to another cycle length (NOTES.md): "
              f"{outcome.defect[0]} of {outcome.defect[1]} reproducer walks failed",
              file=sys.stderr)
    print(f"host slowdown against the reference host: {outcome.host.slowdown():.4f}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Bench A9: design-knob sensitivity + the wire format's throughput.

Regenerates the fanout sweep (packet size vs tuning vs wait — the
[SV96] tuning decision) and the Zipf-skew sweep into
``benchmarks/out/sensitivity.txt``, and times frame encode/decode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sensitivity import (
    fanout_sensitivity,
    format_fanout_sensitivity,
    format_skew_sensitivity,
    skew_sensitivity,
)
from repro.broadcast.pointers import compile_program
from repro.core.optimal import solve
from repro.io import wire
from repro.io.wire import decode_cycle, encode_program
from repro.tree.alphabetic import optimal_alphabetic_tree
from repro.workloads.catalogs import stock_catalog

from conftest import write_artifact


def _program(count=20, channels=2):
    rng = np.random.default_rng(6)
    items = stock_catalog(rng, count=count)
    tree = optimal_alphabetic_tree(
        [i.label for i in items],
        [i.weight for i in items],
        fanout=3,
        keys=[i.key for i in items],
    )
    return compile_program(solve(tree, channels=channels).schedule)


@pytest.mark.parametrize("fanout", [2, 4, 8])
def test_fanout_point_timing(benchmark, rng, fanout):
    items = stock_catalog(rng, count=12)
    points = benchmark(fanout_sensitivity, items, (fanout,))
    assert points[0].fanout == fanout


def test_wire_encode_throughput(benchmark):
    program = _program()
    frames = benchmark(encode_program, program)
    assert len(frames) == program.channels


def test_wire_decode_throughput(benchmark):
    """A cold parse of every frame: the decode memo is emptied before
    each round, so repeats time the parser, not memo hits."""
    frames = encode_program(_program())
    decoded = benchmark.pedantic(
        decode_cycle, args=(frames,), setup=wire._parse_frame.cache_clear,
        rounds=200,
    )
    assert len(decoded) == len(frames)


def test_regenerate_sensitivity_artifact(benchmark, artifact_dir):
    def run_once():
        rng = np.random.default_rng(2000)
        items = stock_catalog(rng, count=12)
        fanout_points = fanout_sensitivity(items, fanouts=(2, 3, 4, 6))
        tunings = [p.tuning_time for p in fanout_points]
        assert tunings[0] >= tunings[-1]  # wider fanout, fewer probes
        skew_points = skew_sensitivity(
            np.random.default_rng(2000), trials=8
        )
        optimal = [p.optimal_wait for p in skew_points]
        assert optimal == sorted(optimal, reverse=True)  # skew helps
        text = (
            format_fanout_sensitivity(fanout_points)
            + "\n\n"
            + format_skew_sensitivity(skew_points)
        )
        write_artifact(artifact_dir, "sensitivity", text)

    benchmark.pedantic(run_once, rounds=1, iterations=1)

"""Golden record of the CLI surface: every leaf command's options.

Each of the 30 leaf commands is parsed with only its required arguments,
and the resulting namespace is compared with a literal dict of every
option's dest and default. A flag that is added, dropped, renamed or
re-defaulted fails here, whatever the parser's internal layout.
The ``handler`` and ``*command`` subparser dests are layout, not
options, and are left out.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main

_LAYOUT_DESTS = {
    "handler",
    "command",
    "cluster_command",
    "approx_command",
    "sched_command",
    "obs_command",
}

LEAVES = [
    pytest.param(
        ["demo"],
        [],
        {
            "channels": 2,
            "seed": 2000,
        },
        id="demo",
    ),
    pytest.param(
        ["table1"],
        [],
        {
            "max_enum_p12": 6,
            "max_fanout": 6,
            "seed": 2000,
        },
        id="table1",
    ),
    pytest.param(
        ["fig14"],
        [],
        {
            "seed": 2000,
            "trials": 30,
        },
        id="fig14",
    ),
    pytest.param(
        ["compare"],
        [],
        {
            "data_count": 12,
            "seed": 2000,
            "trials": 20,
        },
        id="compare",
    ),
    pytest.param(
        ["channels"],
        [],
        {
            "fanout": 3,
            "seed": 2000,
        },
        id="channels",
    ),
    pytest.param(
        ["ablation"],
        [],
        {
            "seed": 2000,
        },
        id="ablation",
    ),
    pytest.param(
        ["bench"],
        [],
        {
            "record": False,
            "rev": None,
            "seed": 2000,
            "suites": [],
            "timestamp": None,
        },
        id="bench",
    ),
    pytest.param(
        ["spaces"],
        [],
        {
            "channels": 2,
            "seed": 2000,
        },
        id="spaces",
    ),
    pytest.param(
        ["faults"],
        [],
        {
            "burst": False,
            "channels": 2,
            "corruption": 0.0,
            "json_path": None,
            "losses": "0,0.05,0.1,0.2,0.3",
            "max_cycles": 8,
            "planners": "auto,sorting,sv96",
            "policy": "retry-parent",
            "requests": 500,
            "seed": 2000,
        },
        id="faults",
    ),
    pytest.param(
        ["serve"],
        [],
        {
            "channels": 3,
            "corruption": 0.0,
            "fanout": 3,
            "host": "127.0.0.1",
            "items": 24,
            "loss": 0.0,
            "metrics_port": None,
            "planner": "sorting",
            "poll_interval": 0.5,
            "port": 0,
            "seed": 2000,
            "slot_duration": 0.0,
            "store_dir": None,
        },
        id="serve",
    ),
    pytest.param(
        ["tune"],
        ["--port", "1", "--key", "K000"],
        {
            "host": "127.0.0.1",
            "key": "K000",
            "max_cycles": 8,
            "policy": None,
            "port": 1,
            "seed": 2000,
            "tune_slot": 1,
        },
        id="tune",
    ),
    pytest.param(
        ["loadtest"],
        [],
        {
            "arrival_rate": 5000.0,
            "channels": 3,
            "check_parity": False,
            "corruption": 0.0,
            "engine": "fleet",
            "fanout": 3,
            "items": 24,
            "loss": 0.0,
            "max_cycles": 8,
            "max_open": 256,
            "planner": "sorting",
            "policy": None,
            "seed": 2000,
            "slot_duration": 0.0,
            "trace_prefix": None,
            "tuners": 1000,
        },
        id="loadtest",
    ),
    pytest.param(
        ["cluster", "plan"],
        [],
        {
            "channels": 3,
            "fanout": 3,
            "items": 32,
            "partitioner": "hash",
            "planner": "meta",
            "refit_rounds": 0,
            "seed": 2000,
            "shards": 2,
        },
        id="cluster plan",
    ),
    pytest.param(
        ["cluster", "serve"],
        [],
        {
            "channels": 3,
            "fanout": 3,
            "host": "127.0.0.1",
            "items": 32,
            "partitioner": "hash",
            "planner": "meta",
            "refit_rounds": 0,
            "seed": 2000,
            "shards": 2,
            "slot_duration": 0.0,
        },
        id="cluster serve",
    ),
    pytest.param(
        ["cluster", "loadtest"],
        [],
        {
            "arrival_rate": 0.0,
            "channels": 3,
            "check_parity": False,
            "fanout": 3,
            "items": 32,
            "max_open": 256,
            "partitioner": "hash",
            "planner": "meta",
            "refit_rounds": 0,
            "seed": 2000,
            "shards": 2,
            "slot_duration": 0.0,
            "sweep": None,
            "tuners": 200,
        },
        id="cluster loadtest",
    ),
    pytest.param(
        ["approx", "plan"],
        [],
        {
            "channels": 4,
            "fanout": 3,
            "items": 10000,
            "method": "ptas",
            "seed": 2000,
            "theta": 0.95,
        },
        id="approx plan",
    ),
    pytest.param(
        ["approx", "explain"],
        [],
        {
            "channels": 4,
            "fanout": 3,
            "items": 10000,
            "seed": 2000,
            "theta": 0.95,
            "wire_safe": False,
        },
        id="approx explain",
    ),
    pytest.param(
        ["sched", "log"],
        ["--store", "S"],
        {
            "limit": 0,
            "seed": 2000,
            "store_dir": "S",
        },
        id="sched log",
    ),
    pytest.param(
        ["sched", "show"],
        ["--store", "S"],
        {
            "seed": 2000,
            "store_dir": "S",
            "version": None,
        },
        id="sched show",
    ),
    pytest.param(
        ["sched", "diff"],
        ["--store", "S", "--from", "1", "--to", "2"],
        {
            "from_version": 1,
            "seed": 2000,
            "store_dir": "S",
            "to_version": 2,
        },
        id="sched diff",
    ),
    pytest.param(
        ["sched", "rollback"],
        ["--store", "S", "--to", "1"],
        {
            "note": "",
            "seed": 2000,
            "store_dir": "S",
            "to_version": 1,
        },
        id="sched rollback",
    ),
    pytest.param(
        ["sched", "gc"],
        ["--store", "S"],
        {
            "seed": 2000,
            "store_dir": "S",
        },
        id="sched gc",
    ),
    pytest.param(
        ["sched", "loadtest"],
        [],
        {
            "channels": 3,
            "fanout": 3,
            "items": 24,
            "max_open": 128,
            "postmortem_dir": None,
            "seed": 2000,
            "trace_path": None,
            "tuners": 200,
        },
        id="sched loadtest",
    ),
    pytest.param(
        ["obs", "timeline"],
        ["T"],
        {
            "channel": None,
            "limit": 40,
            "seed": 2000,
            "trace": "T",
        },
        id="obs timeline",
    ),
    pytest.param(
        ["obs", "diff"],
        ["A", "B"],
        {
            "label_a": "A",
            "label_b": "B",
            "limit": 10,
            "seed": 2000,
            "trace_a": "A",
            "trace_b": "B",
        },
        id="obs diff",
    ),
    pytest.param(
        ["obs", "attrib"],
        ["T"],
        {
            "seed": 2000,
            "slowest": 5,
            "trace": "T",
        },
        id="obs attrib",
    ),
    pytest.param(
        ["obs", "spans"],
        ["T"],
        {
            "limit": 20,
            "seed": 2000,
            "trace": "T",
            "trace_id": None,
        },
        id="obs spans",
    ),
    pytest.param(
        ["obs", "postmortem"],
        ["P"],
        {
            "bundle": "P",
            "seed": 2000,
            "tree": False,
        },
        id="obs postmortem",
    ),
    pytest.param(
        ["sensitivity"],
        [],
        {
            "catalog": 12,
            "seed": 2000,
            "trials": 8,
        },
        id="sensitivity",
    ),
    pytest.param(
        ["solve"],
        ["--input", "T.json"],
        {
            "budget": 500000,
            "channels": 1,
            "input": "T.json",
            "output": None,
            "planner": "budgeted",
            "seed": 2000,
        },
        id="solve",
    ),

]


@pytest.mark.parametrize(("path", "required", "expected"), LEAVES)
def test_every_option_keeps_its_dest_and_default(path, required, expected):
    namespace = vars(build_parser().parse_args([*path, *required]))
    options = {
        dest: value
        for dest, value in namespace.items()
        if dest not in _LAYOUT_DESTS
    }
    assert options == expected


@pytest.mark.parametrize(("path", "required", "expected"), LEAVES)
def test_help_exits_0(path, required, expected, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*path, "--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_the_table_covers_every_leaf_command():
    def leaves(parser, prefix):
        subparsers = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        if not subparsers:
            yield prefix
            return
        for name, child in subparsers[0].choices.items():
            yield from leaves(child, [*prefix, name])

    listed = sorted(" ".join(param.values[0]) for param in LEAVES)
    found = sorted(" ".join(leaf) for leaf in leaves(build_parser(), []))
    assert listed == found
    assert len(listed) == 30

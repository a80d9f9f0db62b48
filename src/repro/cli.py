"""Command-line interface: ``repro`` / ``python -m repro.cli``.

``repro --help`` lists the commands and ``repro COMMAND --help`` each
one's options. The 18 top-level commands:

* the paper's experiments: ``demo`` (the Fig. 1 example on 1..k
  channels), ``table1`` (§4.1 pruning effects), ``fig14`` (§4.2
  Sorting vs Optimal), ``compare`` (heuristics and baselines vs
  optimal), ``channels`` (data wait vs channel count), ``ablation``
  (pruning rules), ``spaces`` (the reduced search trees of Figs. 9-12)
  and ``sensitivity`` (fanout and skew sweeps);
* ``solve``    — allocate a user-supplied JSON index tree over k
  channels with any :mod:`repro.planners` planner;
* ``bench``    — the bench harness (:mod:`repro.bench`): run suites,
  write ``BENCH_<suite>.json`` and gate each against its history;
* ``faults``   — loss sweep over planners on unreliable channels, with
  the loss=0 differential gate;
* ``serve``, ``tune``, ``loadtest`` — air a compiled plan over sockets
  (:mod:`repro.net`), walk it with one live tuner, or load it with a
  tuner fleet (``--engine batch`` runs the same trace through
  :mod:`repro.engine`);
* ``cluster plan|serve|loadtest`` — the sharded multi-station cluster
  (:mod:`repro.cluster`);
* ``approx plan|explain`` — the approximation planners and the
  meta-planner's decision (:mod:`repro.approx`);
* ``sched log|show|diff|rollback|gc|loadtest`` — the versioned schedule
  store and its live cutover loadtest (:mod:`repro.sched`);
* ``obs timeline|diff|attrib|spans|postmortem`` — trace and flight
  recorder tooling (:mod:`repro.obs`).

Every leaf parser names its ``_cmd_*`` function as ``handler``, and
``main`` calls it. A :class:`~repro.exceptions.ReproError` from any
command becomes one ``error:`` line on stderr and exit 1; a missing
input (such as a ``sched`` store that does not exist) becomes one and
exit 2. Exit codes: 0 ok, 1 failure, 2 usage or I/O error.

Installed as the ``repro`` console script (``broadcast-alloc`` remains
as the historical alias).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis.comparisons import (
    channel_scaling,
    compare_methods,
    format_channel_scaling,
    format_method_comparison,
    format_pruning_ablation,
    pruning_ablation,
)
from .analysis.fig14 import format_fig14, run_fig14
from .analysis.table1 import format_table1, run_table1
from .core.optimal import solve
from .exceptions import ReproError
from .tree.builders import paper_example_tree

__all__ = ["main", "build_parser"]

# Flags that more than one command takes, declared once. A command
# whose default differs re-defaults the flag through ``_command``.
_SHARED_FLAGS = {
    "--items": dict(
        type=int, default=24, help="catalog size (default %(default)s)"
    ),
    "--channels": dict(
        type=int, default=3, help="channel count (default %(default)s)"
    ),
    "--fanout": dict(
        type=int, default=3, help="index tree fanout (default %(default)s)"
    ),
    "--planner": dict(
        default="sorting",
        help="repro.planners registry name (default 'sorting')",
    ),
    "--host": dict(default="127.0.0.1"),
    "--tuners": dict(
        type=int, default=200, help="tuner fleet size (default %(default)s)"
    ),
    "--arrival-rate": dict(
        type=float,
        default=0.0,
        help="Poisson arrival intensity, tuners/second (0 = all at once)",
    ),
    "--max-open": dict(
        type=int,
        default=256,
        help="simultaneously open connections (fd throttle)",
    ),
    "--slot-duration": dict(
        type=float,
        default=0.0,
        help="station pacing, seconds per slot (0 = logical time, TCP "
        "only)",
    ),
    "--loss": dict(
        type=float, default=0.0, help="per-bucket loss probability"
    ),
    "--corruption": dict(
        type=float,
        default=0.0,
        help="per-bucket payload corruption probability",
    ),
    "--policy": dict(choices=("retry-parent", "next-cycle"), default=None),
    "--max-cycles": dict(
        type=int,
        default=8,
        help="recovery give-up bound, in cycles from tune-in (default 8)",
    ),
    "--check-parity": dict(
        action="store_true",
        help="replay the trace through the in-process simulator and "
        "require exact equality (the socket fleet needs lossless air)",
    ),
}
_CATALOG = ("--items", "--channels", "--fanout")
_AIR_FAULTS = ("--loss", "--corruption")
_RECOVERY = ("--policy", "--max-cycles")
_FLEET = (
    "--tuners", "--arrival-rate", "--max-open", "--slot-duration",
    "--check-parity",
)


def _command(commands, name, handler, help, *flags, **defaults):
    """Add subcommand ``name``, run by ``handler``, with shared ``flags``.

    ``defaults`` re-default shared flags for this command only.
    """
    parser = commands.add_parser(name, help=help)
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])
    parser.set_defaults(handler=handler, **defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="broadcast-alloc",
        description=(
            "Optimal index and data allocation in multiple broadcast "
            "channels (Lo & Chen, ICDE 2000) - experiment runner"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=2000, help="RNG seed (default 2000)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    _command(
        commands, "demo", _cmd_demo,
        "solve the Fig. 1 example on 1..--channels channels",
        "--channels", channels=2,
    )

    table1 = _command(
        commands, "table1", _cmd_table1, "Table 1 pruning effects"
    )
    table1.add_argument(
        "--max-fanout",
        type=int,
        default=6,
        help="largest m to include (6 matches the paper)",
    )
    table1.add_argument(
        "--max-enum-p12",
        type=int,
        default=6,
        help="largest m to enumerate the P1,2 column for",
    )

    fig14 = _command(
        commands, "fig14", _cmd_fig14, "Fig. 14 Sorting vs Optimal"
    )
    fig14.add_argument("--trials", type=int, default=30)

    compare = _command(
        commands, "compare", _cmd_compare,
        "heuristics and baselines vs optimal",
    )
    compare.add_argument("--trials", type=int, default=20)
    compare.add_argument("--data-count", type=int, default=12)

    _command(
        commands, "channels", _cmd_channels, "data wait vs channel count",
        "--fanout",
    )
    _command(commands, "ablation", _cmd_ablation, "pruning-rule ablation")

    bench = _command(
        commands, "bench", _cmd_bench,
        "run bench suites, write BENCH_<suite>.json and gate each "
        "against its history; exit 1 naming the first regression",
    )
    bench.add_argument(
        "suites",
        nargs="*",
        metavar="SUITE",
        help="registered suite names (default: all)",
    )
    bench.add_argument(
        "--record",
        action="store_true",
        help="append the run to benchmarks/history/<suite>.jsonl "
        "(seeds a missing baseline)",
    )
    bench.add_argument(
        "--rev",
        default=None,
        help="git revision to stamp into each record "
        "(the Makefile passes `git rev-parse --short HEAD`)",
    )
    bench.add_argument(
        "--timestamp",
        default=None,
        help="ISO timestamp to stamp into each record "
        "(the Makefile passes `date -u`)",
    )

    _command(
        commands, "spaces", _cmd_spaces,
        "render the reduced search trees (Figs. 9-12); --channels is k "
        "for the topological tree",
        "--channels", channels=2,
    )

    faults = _command(
        commands, "faults", _cmd_faults,
        "loss sweep over registry planners on unreliable channels",
        "--channels", "--corruption", *_RECOVERY,
        channels=2, policy="retry-parent",
    )
    faults.add_argument(
        "--planners",
        default="auto,sorting,sv96",
        help="comma-separated repro.planners registry names "
        "(default: auto,sorting,sv96)",
    )
    faults.add_argument(
        "--losses",
        default="0,0.05,0.1,0.2,0.3",
        help="comma-separated per-channel loss probabilities "
        "(0 is always re-added: it carries the differential gate)",
    )
    faults.add_argument("--requests", type=int, default=500)
    faults.add_argument(
        "--burst",
        action="store_true",
        help="Gilbert-Elliott burst losses instead of i.i.d.",
    )
    faults.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the full sweep record to PATH",
    )

    serve = _command(
        commands, "serve", _cmd_serve,
        "air a compiled plan over sockets (repro.net)",
        *_CATALOG, "--planner", "--host", "--slot-duration", *_AIR_FAULTS,
    )
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve /metrics (Prometheus) and /healthz on this "
        "port (0 picks a free one)",
    )
    serve.add_argument(
        "--store",
        dest="store_dir",
        default=None,
        metavar="DIR",
        help="serve from a repro.sched schedule store: an empty store "
        "is seeded with the demo plan as version 1, otherwise the head "
        "version goes on air; the store is then polled and any version "
        "published behind the station's back (a replan or a 'sched "
        "rollback' from another shell) cuts over at the next cycle "
        "boundary with zero dropped walks",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="store poll period in seconds when --store is given "
        "(default 0.5)",
    )

    tune = _command(
        commands, "tune", _cmd_tune,
        "one live client walk against a running station",
        "--host", *_RECOVERY,
    )
    tune.add_argument("--port", type=int, required=True)
    tune.add_argument("--key", required=True, help="search key to fetch")
    tune.add_argument(
        "--tune-slot",
        type=int,
        default=1,
        help="cycle-relative slot to tune in at (default 1)",
    )

    loadtest = _command(
        commands, "loadtest", _cmd_loadtest,
        "concurrent tuner fleet on a loopback station",
        *_CATALOG, "--planner", *_FLEET, *_AIR_FAULTS, *_RECOVERY,
        tuners=1000, arrival_rate=5000.0,
    )
    loadtest.add_argument(
        "--trace",
        dest="trace_prefix",
        default=None,
        metavar="PREFIX",
        help="write the fleet's JSONL event trace to PREFIX.live.jsonl "
        "and a lossless simulator replay of the same requests to "
        "PREFIX.sim.jsonl (diff them with 'obs diff')",
    )
    loadtest.add_argument(
        "--engine",
        choices=("fleet", "batch"),
        default="fleet",
        help="'fleet' runs the socket tuner fleet (default); 'batch' "
        "runs the identical request trace through the in-process "
        "repro.engine batch simulator instead (no sockets; "
        "--check-parity compares it walk-for-walk against the scalar "
        "protocol)",
    )

    cluster = commands.add_parser(
        "cluster",
        help="sharded multi-station cluster: partitioned planning, "
        "routing, refit, fleet loadtest (repro.cluster)",
    )
    cluster_commands = cluster.add_subparsers(
        dest="cluster_command", required=True
    )
    cluster_plan = _command(
        cluster_commands, "plan", _cmd_cluster_plan,
        "partition the catalog, plan every shard, print the table",
        *_CATALOG, items=32,
    )
    cluster_serve = _command(
        cluster_commands, "serve", _cmd_cluster_serve,
        "air every shard's program on its own station",
        *_CATALOG, "--host", "--slot-duration", items=32,
    )
    cluster_loadtest = _command(
        cluster_commands, "loadtest", _cmd_cluster_loadtest,
        "routed tuner fleet across every shard, with per-shard "
        "accounting and parity gates",
        *_CATALOG, *_FLEET, items=32,
    )
    cluster_loadtest.add_argument(
        "--sweep",
        default=None,
        metavar="COUNTS",
        help="comma-separated shard counts (e.g. 1,2,4) to loadtest "
        "in sequence; overrides --shards and records speedups",
    )
    for sub in (cluster_plan, cluster_serve, cluster_loadtest):
        sub.add_argument(
            "--planner",
            default="meta",
            help="repro.planners registry name used per shard "
            "(default 'meta': the repro.approx cost-model dispatcher, "
            "restricted to wire-routable planners)",
        )
        sub.add_argument("--shards", type=int, default=2)
        sub.add_argument(
            "--partitioner",
            default="hash",
            help="repro.cluster.partition registry name "
            "(default 'hash'; also 'weight-balanced')",
        )
        sub.add_argument(
            "--refit-rounds",
            type=int,
            default=0,
            help="run the measuring refit loop for up to N rounds "
            "before serving/loadtesting (default 0 = off)",
        )

    approx = commands.add_parser(
        "approx",
        help="approximation planners for million-item catalogs: ptas "
        "plan card and meta-planner explain (repro.approx)",
    )
    approx_commands = approx.add_subparsers(
        dest="approx_command", required=True
    )
    approx_plan = _command(
        approx_commands, "plan", _cmd_approx_plan,
        "plan a synthetic Zipf catalog with one registry planner, "
        "print the plan card (cost, bound, groups, timing)",
        *_CATALOG, items=10_000, channels=4,
    )
    approx_plan.add_argument(
        "--method",
        default="ptas",
        help="repro.planners registry name (default 'ptas')",
    )
    approx_explain = _command(
        approx_commands, "explain", _cmd_approx_explain,
        "print the meta-planner's measured features and its "
        "decision for a catalog, without planning anything",
        *_CATALOG, items=10_000, channels=4,
    )
    approx_explain.add_argument(
        "--wire-safe",
        action="store_true",
        help="restrict the decision to wire-routable planners "
        "(what the cluster's stations require)",
    )
    for sub in (approx_plan, approx_explain):
        sub.add_argument(
            "--theta",
            type=float,
            default=0.95,
            help="Zipf skew of the synthetic weights (default 0.95)",
        )

    sched = commands.add_parser(
        "sched",
        help="versioned schedule store: history, diffs, zero-downtime "
        "rollback, gc and cutover loadtest (repro.sched)",
    )
    sched_commands = sched.add_subparsers(
        dest="sched_command", required=True
    )
    sched_log = _command(
        sched_commands, "log", _cmd_sched_log,
        "the version log, oldest first",
    )
    sched_log.add_argument(
        "--limit",
        type=int,
        default=0,
        help="show only the newest N versions (0 = all; default 0)",
    )
    sched_show = _command(
        sched_commands, "show", _cmd_sched_show,
        "print one version's plan, integrity-verified",
    )
    sched_show.add_argument(
        "--version",
        type=int,
        default=None,
        help="version to show (default: head)",
    )
    sched_diff = _command(
        sched_commands, "diff", _cmd_sched_diff,
        "structural delta between two versions' plan documents",
    )
    sched_diff.add_argument(
        "--from", dest="from_version", type=int, required=True,
        metavar="VERSION",
    )
    sched_diff.add_argument(
        "--to", dest="to_version", type=int, required=True,
        metavar="VERSION",
    )
    sched_rollback = _command(
        sched_commands, "rollback", _cmd_sched_rollback,
        "republish an old version as the new head (append-only; a "
        "station serving with --store cuts over at its next cycle "
        "boundary)",
    )
    sched_rollback.add_argument(
        "--to", dest="to_version", type=int, required=True,
        metavar="VERSION", help="version whose content becomes the head",
    )
    sched_rollback.add_argument(
        "--note", default="", help="free-form note stamped into the log"
    )
    sched_gc = _command(
        sched_commands, "gc", _cmd_sched_gc,
        "drop objects the version log does not reference "
        "(left-overs of interrupted publishes)",
    )
    for sub in (sched_log, sched_show, sched_diff, sched_rollback, sched_gc):
        sub.add_argument(
            "--store",
            dest="store_dir",
            required=True,
            metavar="DIR",
            help="schedule store directory (repro.sched.ScheduleStore)",
        )
    sched_loadtest = _command(
        sched_commands, "loadtest", _cmd_sched_loadtest,
        "live cutover loadtest: a tuner fleet rides through a "
        "mid-walk replan and a rollback; exits non-zero unless frame "
        "accounting, zero-abandonment and byte-exact restore all hold",
        "--tuners", *_CATALOG, "--max-open", max_open=128,
    )
    sched_loadtest.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        metavar="PATH",
        help="record a span-traced JSONL of the run to PATH: the "
        "replan/publish/cutover spans and every walk's segment spans "
        "share one trace id per replan (view with 'obs spans')",
    )
    sched_loadtest.add_argument(
        "--postmortem-dir",
        default=None,
        metavar="DIR",
        help="attach an always-on flight recorder dumping postmortem "
        "bundles to DIR whenever an acceptance gate fails",
    )

    obs = commands.add_parser(
        "obs",
        help="trace tooling: timelines, diffs, latency attribution, "
        "causal span trees and postmortem bundles",
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    timeline = _command(
        obs_commands, "timeline", _cmd_obs_timeline,
        "reconstruct the per-(channel, slot) view of one trace",
    )
    timeline.add_argument("trace", help="JSONL trace file")
    timeline.add_argument(
        "--channel", type=int, default=None, help="show one channel only"
    )
    timeline.add_argument(
        "--limit",
        type=int,
        default=40,
        help="max slot cells to print (0 = all; default 40)",
    )
    diff = _command(
        obs_commands, "diff", _cmd_obs_diff,
        "compare two traces; exit 1 and name the first divergent "
        "slot when they disagree",
    )
    diff.add_argument("trace_a", help="JSONL trace file (side A)")
    diff.add_argument("trace_b", help="JSONL trace file (side B)")
    diff.add_argument("--label-a", default="A", help="display name of side A")
    diff.add_argument("--label-b", default="B", help="display name of side B")
    diff.add_argument(
        "--limit",
        type=int,
        default=10,
        help="max divergent cells to print (default 10)",
    )
    attrib = _command(
        obs_commands, "attrib", _cmd_obs_attrib,
        "fold a trace into per-walk phase breakdowns "
        "(probe/descent/hop/retry/slack) that sum exactly to each "
        "walk's access time; exit 1 if any walk violates exactness",
    )
    attrib.add_argument("trace", help="JSONL trace file")
    attrib.add_argument(
        "--slowest",
        type=int,
        default=5,
        help="how many of the slowest walks to break down individually "
        "(0 = none; default 5)",
    )
    spans = _command(
        obs_commands, "spans", _cmd_obs_spans,
        "reconstruct causal span trees from a trace (replan -> "
        "store publish -> station cutover -> walk segments) and "
        "reconcile segment durations against the attribution layer; "
        "exit 1 on a containment or reconciliation violation",
    )
    spans.add_argument("trace", help="JSONL trace file")
    spans.add_argument(
        "--trace-id",
        type=lambda v: int(v, 0),
        default=None,
        help="show one trace only (decimal or 0x-hex id)",
    )
    spans.add_argument(
        "--limit",
        type=int,
        default=20,
        help="max walk reconciliation rows to print (0 = all; "
        "default 20)",
    )
    postmortem = _command(
        obs_commands, "postmortem", _cmd_obs_postmortem,
        "print a flight-recorder bundle: the causal span chain "
        "ending at the trigger, plus each component ring's summary",
    )
    postmortem.add_argument("bundle", help="postmortem-*.json bundle file")
    postmortem.add_argument(
        "--tree",
        action="store_true",
        help="also print the bundle's full span trees",
    )

    sensitivity = _command(
        commands, "sensitivity", _cmd_sensitivity,
        "fanout and skew sensitivity sweeps",
    )
    sensitivity.add_argument("--catalog", type=int, default=12)
    sensitivity.add_argument("--trials", type=int, default=8)

    solve_cmd = _command(
        commands, "solve", _cmd_solve,
        "allocate a user-supplied index tree (JSON)",
        "--channels", channels=1,
    )
    solve_cmd.add_argument(
        "--input",
        required=True,
        help="path to a broadcast-alloc/tree JSON document",
    )
    solve_cmd.add_argument(
        "--planner",
        default="budgeted",
        help="repro.planners registry name of the allocation strategy "
        "(default 'budgeted': exact within --budget, sorting beyond)",
    )
    solve_cmd.add_argument(
        "--budget",
        type=int,
        default=500_000,
        help="exact-search state budget before the sorting heuristic "
        "takes over (only meaningful for the 'budgeted' planner)",
    )
    solve_cmd.add_argument(
        "--output",
        default=None,
        help="optional path to write the solved schedule JSON to",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        # A library error (an unknown planner, a corrupt store, a
        # protocol violation, a failed lookup) is one line, not a crash.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


class _UsageError(Exception):
    """A command's input is missing or unusable: one line, exit 2."""


def _comma_list(flag: str, text: str, convert, what: str):
    """``text`` split on commas and converted; a bad token is a usage error."""
    try:
        return [convert(token) for token in text.split(",") if token.strip()]
    except ValueError as error:
        raise _UsageError(
            f"{flag} must be comma-separated {what}, got {text!r}"
        ) from error


# ---------------------------------------------------------------------------
# The paper's experiments
# ---------------------------------------------------------------------------

def _cmd_demo(args) -> int:
    tree = paper_example_tree()
    print("Fig. 1 index tree:")
    print(tree.to_ascii())
    for k in range(1, args.channels + 1):
        result = solve(tree, channels=k)
        print(
            f"\n{k} channel(s): optimal data wait = {result.cost:.4f} "
            f"(method: {result.method})"
        )
        print(result.schedule.to_ascii())
    return 0


def _cmd_table1(args) -> int:
    fanouts = tuple(range(2, args.max_fanout + 1))
    report = run_table1(
        fanouts=fanouts, seed=args.seed, max_enum_p12=args.max_enum_p12
    )
    print(format_table1(report))
    return 0


def _cmd_fig14(args) -> int:
    print(format_fig14(run_fig14(trials=args.trials, seed=args.seed)))
    return 0


def _cmd_compare(args) -> int:
    rng = np.random.default_rng(args.seed)
    results = [
        compare_methods(
            rng, workload, data_count=args.data_count, trials=args.trials
        )
        for workload in ("zipf", "normal")
    ]
    print(format_method_comparison(results))
    return 0


def _cmd_channels(args) -> int:
    rng = np.random.default_rng(args.seed)
    print(format_channel_scaling(channel_scaling(rng, fanout=args.fanout)))
    return 0


def _cmd_ablation(args) -> int:
    rng = np.random.default_rng(args.seed)
    print(format_pruning_ablation(pruning_ablation(rng)))
    return 0


def _cmd_spaces(args) -> int:
    from .core.problem import AllocationProblem
    from .core.render import render_data_tree, render_topological_tree

    tree = paper_example_tree()
    print(
        f"Reduced {args.channels}-channel topological tree of the "
        "Fig. 1 example:"
    )
    print(render_topological_tree(AllocationProblem(tree, args.channels)))
    print("\nData tree with Property 4 marks (x = pruned), Fig. 12 style:")
    print(render_data_tree(AllocationProblem(tree, 1), annotate=True))
    return 0


def _cmd_sensitivity(args) -> int:
    from .analysis.sensitivity import (
        fanout_sensitivity,
        format_fanout_sensitivity,
        format_skew_sensitivity,
        skew_sensitivity,
    )
    from .workloads.catalogs import stock_catalog

    rng = np.random.default_rng(args.seed)
    items = stock_catalog(rng, count=args.catalog)
    print(format_fanout_sensitivity(fanout_sensitivity(items)))
    print()
    print(format_skew_sensitivity(skew_sensitivity(rng, trials=args.trials)))
    return 0


def _cmd_bench(args) -> int:
    from .bench import SUITES, run_suites

    unknown = [name for name in args.suites if name not in SUITES]
    if unknown:
        raise _UsageError(
            f"unknown bench suite(s): {', '.join(unknown)} "
            f"(known: {', '.join(SUITES)})"
        )
    return run_suites(
        args.suites, record=args.record, rev=args.rev,
        timestamp=args.timestamp,
    )


def _cmd_solve(args) -> int:
    import json

    from .broadcast.metrics import (
        expected_access_time,
        expected_tuning_time,
    )
    from .io.json_io import PersistenceError, save_schedule, tree_from_dict
    from .planners import plan

    try:
        with open(args.input) as handle:
            tree = tree_from_dict(json.load(handle))
    except (OSError, json.JSONDecodeError, PersistenceError) as error:
        raise _UsageError(f"cannot read input: {error}") from error
    options = {"budget": args.budget} if args.planner == "budgeted" else {}
    result = plan(tree, args.channels, method=args.planner, **options)
    schedule = result.schedule
    fell_back = result.stats.get("fell_back")
    note = ""
    if fell_back is True:
        note = f" (exact search exceeded {args.budget} states)"
    elif fell_back is False:
        note = " (exact)"
    print(f"method: {result.method}{note}")
    print(schedule.to_ascii())
    print(f"data wait            = {schedule.data_wait():.4f} slots")
    print(f"expected access time = {expected_access_time(schedule):.4f}")
    print(f"expected tuning time = {expected_tuning_time(schedule):.4f}")
    if args.output:
        save_schedule(schedule, args.output)
        print(f"schedule written to {args.output}")
    return 0


def _cmd_faults(args) -> int:
    import json

    from .analysis.faults_sweep import (
        format_fault_sweep,
        run_fault_sweep,
    )
    from .client.protocol import RecoveryPolicy

    methods = _comma_list("--planners", args.planners, str.strip, "names")
    losses = _comma_list("--losses", args.losses, float, "probabilities")
    if 0.0 not in losses:
        losses = [0.0, *losses]
    report = run_fault_sweep(
        methods=tuple(methods),
        losses=tuple(losses),
        channels=args.channels,
        requests=args.requests,
        seed=args.seed,
        corruption=args.corruption,
        burst=args.burst,
        policy=RecoveryPolicy(mode=args.policy, max_cycles=args.max_cycles),
    )
    print(format_fault_sweep(report))
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"sweep record written to {args.json_path}")
    if not report.differential_ok:
        print(
            "error: loss=0 recovery does not reproduce the lossless "
            "protocol",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# repro.net commands
# ---------------------------------------------------------------------------

def _demo_options(args) -> dict:
    """The demo-plan knobs of ``serve`` and ``loadtest``."""
    return dict(
        items=args.items,
        channels=args.channels,
        fanout=args.fanout,
        planner=args.planner,
        seed=args.seed,
    )


def _net_faults(args):
    """FaultConfig from --loss/--corruption flags, or None for clean air."""
    if args.loss == 0.0 and args.corruption == 0.0:
        return None
    from .faults import FaultConfig

    return FaultConfig(
        loss=args.loss, corruption=args.corruption, seed=args.seed
    )


def _net_policy(mode: str | None, max_cycles: int):
    if mode is None:
        return None
    from .client.protocol import RecoveryPolicy

    return RecoveryPolicy(mode=mode, max_cycles=max_cycles)


def _cmd_serve(args) -> int:
    import asyncio

    from .broadcast.pointers import compile_program
    from .net import BroadcastStation, build_demo_plan
    from .perf import PerfRecorder

    perf = PerfRecorder()
    store = head = None
    if args.store_dir:
        from .sched import ScheduleStore

        store = ScheduleStore(args.store_dir, perf=perf)
        head = store.head
    if head is None:
        plan = build_demo_plan(**_demo_options(args))
        if store is not None:
            head = store.publish(plan, note="initial plan (serve)")
            print(f"store seeded: version 1 published to {args.store_dir}")
    else:
        plan = store.load(head.version)
        print(
            f"store head: version {head.version} "
            f"({head.note or 'no note'})"
        )
    program = compile_program(plan.schedule)
    station = BroadcastStation(
        program,
        faults=_net_faults(args),
        slot_duration=args.slot_duration,
        host=args.host,
        port=args.port,
        perf=perf,
        schedule_version=head.version if head is not None else 0,
    )

    async def follow_store() -> None:
        # The log is re-read from disk on every head access, so a
        # version published by another process — a replan, or a
        # ``sched rollback`` from another shell — shows up here and is
        # put on air at the station's next cycle boundary. Walks in
        # flight see the version stamp change and restart from the
        # root; none are dropped.
        while True:
            await asyncio.sleep(max(args.poll_interval, 0.05))
            head = store.head
            if head is None or head.version <= station.version:
                continue
            result = store.load(head.version)
            slot = station.publish(
                compile_program(result.schedule), version=head.version
            )
            print(
                f"cutover: version {head.version} "
                f"({head.note or 'no note'}) activates at slot {slot}"
            )

    async def air_forever() -> None:
        async with station:
            print(
                f"airing {args.channels} channel(s), cycle length "
                f"{program.cycle_length}, on tcp://"
                f"{station.host}:{station.port} (Ctrl-C to stop)"
            )
            follower = (
                asyncio.ensure_future(follow_store())
                if store is not None
                else None
            )
            try:
                if args.metrics_port is not None:
                    from .obs import (
                        MetricsRegistry,
                        ObsHttpServer,
                        declare_perf_baseline,
                    )

                    registry = MetricsRegistry()
                    declare_perf_baseline(registry)

                    def health() -> dict:
                        return {
                            "status": "ok",
                            "channels": station.channels,
                            "cycle_length": station.cycle_length,
                            "station_port": station.port,
                            "schedule_version": station.version,
                        }

                    async with ObsHttpServer(
                        registry,
                        collect=lambda reg: reg.absorb_perf(perf),
                        health=health,
                        host=args.host,
                        port=args.metrics_port,
                    ) as metrics:
                        print(
                            "metrics on http://"
                            f"{args.host}:{metrics.port}/metrics"
                        )
                        await asyncio.Event().wait()
                else:
                    await asyncio.Event().wait()
            finally:
                # Teardown order matters: the poller must stop and the
                # store snapshot must be on disk *before* the station's
                # async-with closes the sockets — an operator's Ctrl-C
                # leaves the store restorable, never mid-write.
                if follower is not None:
                    follower.cancel()
                if store is not None:
                    _flush_serve_state(store, station, perf)

    try:
        asyncio.run(air_forever())
    except KeyboardInterrupt:
        # The operator's Ctrl-C: asyncio.run has already cancelled the
        # serving tasks and run the station's async-with teardown (the
        # finally above flushed the store first), so sockets are closed
        # — print the counters and exit cleanly.
        pass
    except OSError as error:
        # Bind failure (port already in use, bad address): a usage
        # error the operator can fix, not a traceback.
        print(f"error: cannot serve: {error}", file=sys.stderr)
        return 1
    counters = perf.snapshot().get("counters", {})
    print("station stopped; stats flushed:")
    for name in sorted(counters):
        if name.startswith(("net.station.", "sched.")):
            print(f"  {name} = {counters[name]}")
    return 0


def _flush_serve_state(store, station, perf) -> None:
    """Persist the serving snapshot (version + counters) to the store."""
    counters = perf.snapshot().get("counters", {})
    store.save_state(
        {
            "serving_version": station.version,
            "frames_sent": counters.get("net.station.frames_sent", 0),
            "cycles_aired": counters.get("net.station.cycles", 0),
            "publishes": counters.get("sched.publishes", 0),
        }
    )


def _cmd_tune(args) -> int:
    import asyncio

    from .net import TunerClient

    async def one_walk():
        async with TunerClient(
            args.host,
            args.port,
            policy=_net_policy(args.policy, args.max_cycles),
        ) as tuner:
            return await tuner.fetch(args.key, args.tune_slot)

    try:
        result = asyncio.run(one_walk())
    except OSError as error:
        print(
            f"error: cannot reach station at {args.host}:{args.port}: "
            f"{error}",
            file=sys.stderr,
        )
        return 1
    if result.abandoned:
        print(
            f"abandoned after {result.cycles_spent} cycle(s): "
            f"{result.lost_buckets} lost, {result.corrupt_buckets} corrupt"
        )
        return 1
    print(f"key              = {result.key}")
    print(f"payload          = {result.payload[:40]!r}")
    print(f"access time      = {result.access_time} slots")
    print(f"tuning time      = {result.tuning_time} buckets")
    print(f"channel switches = {result.channel_switches}")
    if result.retries:
        print(
            f"recovered        = {result.lost_buckets} lost + "
            f"{result.corrupt_buckets} corrupt via {result.retries} retries"
        )
    return 0


def _cmd_loadtest_batch(args) -> int:
    """``loadtest --engine batch``: the trace, minus the sockets.

    Runs the *identical* seeded request trace the fleet would run, but
    through :func:`repro.engine.run_batch` in-process. ``--check-parity``
    replays every walk through the scalar protocol (lossless or
    recovering, matching the air) and requires record-for-record
    equality — unlike the fleet, parity here works under faults too,
    because both sides draw from the same seeded outcome streams.
    """
    from time import perf_counter

    from .client.protocol import object_walk, recovering_walk
    from .engine import compile_dense, run_batch
    from .net import build_demo_program, make_request_trace

    program = build_demo_program(**_demo_options(args))
    rng = np.random.default_rng(args.seed)
    trace = make_request_trace(program, args.tuners, rng)
    dense = compile_dense(program)
    ids = np.array([dense.data_index(key) for key, _ in trace])
    slots = np.array([slot for _, slot in trace])
    faults = _net_faults(args)
    policy = _net_policy(args.policy, args.max_cycles)

    started = perf_counter()
    batch = run_batch(
        dense,
        ids,
        slots,
        faults=faults,
        recovery=policy if faults is not None else None,
    )
    seconds = perf_counter() - started
    walks_per_second = len(batch) / seconds if seconds > 0 else 0.0
    summary = batch.summarise()

    parity_exact = None
    if args.check_parity:
        leaves = program.schedule.tree.data_nodes()
        records = batch.to_records()
        if faults is None:
            scalar = [
                object_walk(program, leaves[int(d)], int(s))
                for d, s in zip(ids, slots)
            ]
        else:
            scalar = [
                recovering_walk(
                    program, leaves[int(d)], int(s),
                    faults=faults, policy=policy,
                )
                for d, s in zip(ids, slots)
            ]
        parity_exact = records == scalar

    abandoned = getattr(summary, "abandoned", 0)
    print(
        f"{len(batch)} walks (batch engine): "
        f"{len(batch) - abandoned} completed, {abandoned} abandoned "
        f"in {seconds:.4f}s ({walks_per_second:.0f} walks/s)"
    )
    print(
        f"access time  mean {summary.mean_access_time:.3f}   "
        f"tuning time  mean {summary.mean_tuning_time:.3f}"
    )
    if faults is not None:
        print(
            f"faults: {summary.lost_buckets} lost, "
            f"{summary.corrupt_buckets} corrupt, {summary.retries} retries"
        )
    if parity_exact is not None:
        print(
            "parity vs scalar protocol: "
            + ("EXACT" if parity_exact else "MISMATCH")
        )
    if parity_exact is False:
        print(
            "error: batch engine does not reproduce the scalar protocol",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_loadtest(args) -> int:
    if args.engine == "batch":
        return _cmd_loadtest_batch(args)

    import asyncio

    from .net import (
        build_demo_program,
        make_request_trace,
        run_loadtest,
        trace_simulator,
    )

    faults = _net_faults(args)
    if args.check_parity and faults is not None:
        raise _UsageError(
            "--check-parity requires lossless air (drop --loss/--corruption)"
        )
    program = build_demo_program(**_demo_options(args))
    rng = np.random.default_rng(args.seed)
    trace = None
    tracer = None
    if args.trace_prefix:
        from .obs.events import JsonlTracer

        # Pre-draw the request trace from the same generator state the
        # harness would have used, so measured numbers are unchanged by
        # tracing; the identical trace then feeds the simulator replay.
        trace = make_request_trace(program, args.tuners, rng)
        tracer = JsonlTracer(f"{args.trace_prefix}.live.jsonl")
    try:
        report = asyncio.run(
            run_loadtest(
                program,
                tuners=args.tuners,
                rng=rng,
                trace=trace,
                faults=faults,
                policy=_net_policy(args.policy, args.max_cycles),
                slot_duration=args.slot_duration,
                arrival_rate=args.arrival_rate,
                max_open=args.max_open,
                check_parity=args.check_parity,
                tracer=tracer,
            )
        )
    except OSError as error:
        # A station that died (or never bound) mid-run is an
        # operational failure, not a stack trace — same contract as
        # `tune` against an unreachable station.
        print(f"error: station unreachable mid-run: {error}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.close()
    if args.trace_prefix:
        from .obs.events import JsonlTracer

        with JsonlTracer(f"{args.trace_prefix}.sim.jsonl") as sim_tracer:
            trace_simulator(program, trace, tracer=sim_tracer)
        print(f"live trace written to {args.trace_prefix}.live.jsonl")
        print(f"simulator trace written to {args.trace_prefix}.sim.jsonl")
    print(
        f"{report.tuners} tuners: {report.completed} completed, "
        f"{report.abandoned} abandoned in {report.wall_seconds:.2f}s "
        f"({report.walks_per_second:.0f} walks/s)"
    )
    print(
        f"access time  mean {report.mean_access_time:.3f}  "
        f"p50 {report.access_percentiles['p50']:.0f}  "
        f"p90 {report.access_percentiles['p90']:.0f}  "
        f"p99 {report.access_percentiles['p99']:.0f}  "
        f"max {report.access_percentiles['max']:.0f}"
    )
    print(
        f"tuning time  mean {report.mean_tuning_time:.3f}  "
        f"p50 {report.tuning_percentiles['p50']:.0f}  "
        f"p90 {report.tuning_percentiles['p90']:.0f}  "
        f"p99 {report.tuning_percentiles['p99']:.0f}  "
        f"max {report.tuning_percentiles['max']:.0f}"
    )
    print(
        f"frames: {report.frames_answered} aired, {report.frames_read} "
        f"read, {report.unaccounted_frames} unaccounted"
    )
    if faults is not None:
        print(
            f"faults: {report.lost_buckets} lost, "
            f"{report.corrupt_buckets} corrupt, {report.retries} retries"
        )
    if report.parity is not None:
        verdict = "EXACT" if report.parity["exact_match"] else "MISMATCH"
        print(
            f"parity vs simulator: {verdict} "
            f"(fleet access {report.parity['fleet_mean_access_time']:.4f} "
            f"vs {report.parity['simulator_mean_access_time']:.4f}, "
            f"tuning {report.parity['fleet_mean_tuning_time']:.4f} "
            f"vs {report.parity['simulator_mean_tuning_time']:.4f})"
        )
    ok = report.accounting_ok and report.parity_ok
    if not report.accounting_ok:
        print(
            f"error: {report.unaccounted_frames} unaccounted frames",
            file=sys.stderr,
        )
    if not report.parity_ok:
        print(
            "error: socket fleet does not reproduce the in-process "
            "simulator",
            file=sys.stderr,
        )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# repro.cluster commands
# ---------------------------------------------------------------------------

def _build_cluster(args, shards: int):
    from .cluster import StationCluster, demo_catalog

    return StationCluster(
        demo_catalog(args.items, args.seed),
        shards,
        partitioner=args.partitioner,
        planner=args.planner,
        channels=args.channels,
        fanout=args.fanout,
        seed=args.seed,
    )


def _print_cluster_table(cluster) -> None:
    header = (
        f"{'shard':>5} {'keys':>5} {'load':>10} {'cycle':>6} "
        f"{'plan cost':>10} {'measured':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in cluster.shard_rows():
        measured = (
            f"{row['measured_cost']:.3f}"
            if row["measured_cost"] is not None
            else "-"
        )
        print(
            f"{row['shard']:>5} {row['keys']:>5} {row['load']:>10.3f} "
            f"{row['cycle_length']:>6} {row['planner_cost']:>10.4f} "
            f"{measured:>9}"
        )


def _cmd_cluster_plan(args) -> int:
    cluster = _build_cluster(args, args.shards)
    if args.refit_rounds > 0:
        report = cluster.refit(max_rounds=args.refit_rounds)
    else:
        report = None
        cluster.measure()
    print(
        f"{args.shards} shard(s), partitioner {args.partitioner!r}, "
        f"planner {args.planner!r}"
    )
    _print_cluster_table(cluster)
    print(f"aggregate expected access time = {cluster.aggregate_cost():.4f}")
    if report is not None:
        print(
            f"refit: {report.initial:.4f} -> {report.final:.4f} over "
            f"{len(report.rounds)} round(s), {cluster.router.moves} key "
            "move(s)"
        )
        for round_ in report.rounds:
            verdict = "accepted" if round_.accepted else "reverted"
            print(
                f"  moved {len(round_.moved)} key(s) shard "
                f"{round_.from_shard} -> {round_.to_shard}: "
                f"{round_.before:.4f} -> {round_.after:.4f} ({verdict})"
            )
    return 0


def _cmd_cluster_serve(args) -> int:
    import asyncio

    from .cluster import serve_cluster

    cluster = _build_cluster(args, args.shards)
    if args.refit_rounds > 0:
        cluster.refit(max_rounds=args.refit_rounds)

    async def air_forever() -> None:
        async with serve_cluster(
            cluster,
            host=args.host,
            slot_duration=args.slot_duration,
        ):
            for shard in range(cluster.shards):
                host, port = cluster.endpoints[shard]
                plan = cluster.plans[shard]
                print(
                    f"shard {shard}: {len(plan.keys)} keys, cycle "
                    f"{plan.cycle_length}, on tcp://{host}:{port}"
                )
            print("cluster up (Ctrl-C to stop)")
            await asyncio.Event().wait()

    try:
        asyncio.run(air_forever())
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(f"error: cannot serve cluster: {error}", file=sys.stderr)
        return 1
    print("cluster stopped")
    return 0


def _cmd_cluster_loadtest(args) -> int:
    from .cluster import demo_catalog, run_cluster_sweep, sweep_summary

    counts = (
        _comma_list("--sweep", args.sweep, int, "shard counts")
        if args.sweep
        else [args.shards]
    )
    try:
        results = run_cluster_sweep(
            demo_catalog(args.items, args.seed),
            counts,
            tuners=args.tuners,
            partitioner=args.partitioner,
            planner=args.planner,
            channels=args.channels,
            fanout=args.fanout,
            seed=args.seed,
            refit_rounds=args.refit_rounds,
            slot_duration=args.slot_duration,
            arrival_rate=args.arrival_rate,
            max_open=args.max_open,
            check_parity=args.check_parity,
        )
    except OSError as error:
        # One unreachable/dead shard station fails the whole run with
        # a one-line verdict, mirroring `tune`/`loadtest`.
        print(f"error: shard unreachable mid-run: {error}", file=sys.stderr)
        return 1
    for count, report in sorted(results.items()):
        unaccounted = sum(
            shard["unaccounted_frames"]
            for shard in report.per_shard.values()
        )
        print(
            f"{count} shard(s): {report.completed} completed, "
            f"{report.abandoned} abandoned in {report.wall_seconds:.2f}s "
            f"({report.aggregate_walks_per_second:.0f} walks/s aggregate, "
            f"mean access {report.mean_access_time:.3f}, "
            f"{unaccounted} unaccounted frames)"
        )
    speedups, checks = sweep_summary(results)
    for count, speedup in sorted(speedups.items(), key=lambda kv: int(kv[0])):
        print(f"speedup at {count} shards vs 1: {speedup:.2f}x")
    failed = sorted(name for name, ok in checks.items() if not ok)
    for name in failed:
        print(f"error: cluster check failed: {name}", file=sys.stderr)
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# repro.approx commands
# ---------------------------------------------------------------------------

def _cmd_approx_plan(args) -> int:
    import time

    from .approx.bench import zipf_catalog
    from .perf import PerfRecorder
    from .planners import plan_catalog

    labels, weights = zipf_catalog(args.items, args.theta, args.seed)
    perf = PerfRecorder()
    started = time.perf_counter()
    result = plan_catalog(
        labels,
        weights,
        args.channels,
        method=args.method,
        fanout=args.fanout,
        perf=perf,
    )
    elapsed = time.perf_counter() - started
    print(
        f"{args.items} item(s), {args.channels} channel(s), "
        f"Zipf theta={args.theta}, planner {result.method!r}"
    )
    print(f"data_wait = {result.cost:.4f} ({elapsed:.2f}s)")
    stats = result.stats or {}
    if "quality_bound" in stats:
        print(
            f"a-priori bound = {stats['quality_bound']:.4f} "
            f"(<= {stats['quality_ratio']:.2f}x the data-wait lower "
            f"bound {stats['lower_bound']:.4f})"
        )
        for group in stats["groups"]:
            print(
                f"  group: {group['items']} item(s) from "
                f"{len(group['classes'])} class(es) on {group['channels']} "
                f"channel(s), depth {group['depth']}, "
                f"{group['slots']} slot(s), weight {group['weight']:.1f}"
            )
    meta = stats.get("meta")
    if meta is not None:
        print(
            f"meta decision: {meta['method']!r} ({meta['reason']})"
            + (" [fallback]" if meta["fell_back"] else "")
        )
    return 0


def _cmd_approx_explain(args) -> int:
    from .approx import decide, extract_features
    from .approx.bench import zipf_catalog

    _, weights = zipf_catalog(args.items, args.theta, args.seed)
    features = extract_features(
        weights, args.channels, fanout=args.fanout
    )
    method, options, reason = decide(
        features, wire_safe=args.wire_safe
    )
    print(
        f"features: items={features.items} channels={features.channels} "
        f"fanout={features.fanout} gini={features.gini:.3f} "
        f"entropy={features.entropy:.3f}"
    )
    print(f"decision: {method!r}" + (f" {options}" if options else ""))
    print(f"reason: {reason}")
    if args.wire_safe:
        print("(restricted to wire-routable planners)")
    return 0


# ---------------------------------------------------------------------------
# repro.sched commands
# ---------------------------------------------------------------------------

def _open_store(args):
    """The store at ``--store``, which must already exist.

    ``ScheduleStore`` creates its layout on open, so a mistyped path
    would otherwise read as an empty store and leave a directory
    behind. Only ``serve --store`` seeds a new store.
    """
    from .sched import ScheduleStore

    if not os.path.isdir(args.store_dir):
        raise _UsageError(f"no schedule store at {args.store_dir}")
    return ScheduleStore(args.store_dir)


def _cmd_sched_log(args) -> int:
    store = _open_store(args)
    records = store.versions()
    if not records:
        print(f"store at {args.store_dir} is empty")
        return 0
    head = records[-1].version
    if args.limit > 0:
        records = records[-args.limit:]
    for record in records:
        marker = "*" if record.version == head else " "
        parent = f"<- v{record.parent}" if record.parent else "  root"
        print(
            f"{marker} v{record.version:<4} {record.kind:<8} "
            f"{record.content_id[:12]} {parent:<8} {record.note}"
        )
    print(f"{head} version(s), {store.size_bytes()} bytes on disk")
    return 0


def _cmd_sched_show(args) -> int:
    from .broadcast.metrics import expected_access_time

    store = _open_store(args)
    head = store.head
    if head is None:
        print(f"error: store at {args.store_dir} is empty", file=sys.stderr)
        return 1
    record = store.record(
        args.version if args.version is not None else head.version
    )
    result = store.load(record.version)
    print(
        f"version {record.version} ({record.kind}, "
        f"content {record.content_id[:12]}): {record.note or 'no note'}"
    )
    print(f"method: {result.method}, planned cost: {result.cost:.4f}")
    print(result.schedule.to_ascii())
    print(f"data wait            = {result.schedule.data_wait():.4f} slots")
    print(
        f"expected access time = "
        f"{expected_access_time(result.schedule):.4f}"
    )
    return 0


def _cmd_sched_diff(args) -> int:
    import json

    from .sched import delta

    store = _open_store(args)
    doc_from = store.doc(args.from_version)
    doc_to = store.doc(args.to_version)
    ops = delta(doc_from, doc_to)
    if not ops:
        print(
            f"versions {args.from_version} and {args.to_version} are "
            "content-identical"
        )
        return 0
    print(
        f"v{args.from_version} -> v{args.to_version}: {len(ops)} op(s)"
    )
    for op in ops:
        path = "/".join(str(part) for part in op["path"]) or "<root>"
        if op["op"] == "set":
            print(f"  set  {path} = {json.dumps(op['value'])}")
        elif op["op"] == "del":
            print(f"  del  {path}")
        elif op["op"] == "push":
            print(f"  push {path} += {json.dumps(op['values'])}")
        else:  # trim
            print(f"  trim {path} -> length {op['length']}")
    return 0


def _cmd_sched_rollback(args) -> int:
    record = _open_store(args).rollback(args.to_version, note=args.note)
    print(
        f"rolled back to version {args.to_version}: published as "
        f"version {record.version} (content {record.content_id[:12]}, "
        "byte-identical by construction)"
    )
    print(
        "a station serving with --store picks this up at its next "
        "cycle boundary"
    )
    return 0


def _cmd_sched_gc(args) -> int:
    store = _open_store(args)
    removed = store.gc()
    if removed:
        for object_id in removed:
            print(f"removed {object_id[:12]}")
    print(
        f"{len(removed)} unreferenced object(s) removed; "
        f"{store.size_bytes()} bytes remain"
    )
    return 0


def _cmd_sched_loadtest(args) -> int:
    import asyncio
    from contextlib import ExitStack

    from .sched.harness import run_cutover_loadtest

    try:
        with ExitStack() as stack:
            tracer = None
            if args.trace_path:
                from .obs.events import JsonlTracer

                tracer = stack.enter_context(JsonlTracer(args.trace_path))
            recorder = None
            if args.postmortem_dir:
                from .obs.recorder import FlightRecorder

                recorder = FlightRecorder(dump_dir=args.postmortem_dir)
            record = asyncio.run(
                run_cutover_loadtest(
                    tuners=args.tuners,
                    items=args.items,
                    channels=args.channels,
                    fanout=args.fanout,
                    seed=args.seed,
                    max_open=args.max_open,
                    tracer=tracer,
                    flight_recorder=recorder,
                )
            )
    except OSError as error:
        print(f"error: station unreachable mid-run: {error}", file=sys.stderr)
        return 1
    if args.trace_path:
        print(f"span trace written to {args.trace_path}")
    if recorder is not None and recorder.triggers:
        for trigger in recorder.triggers:
            print(
                f"postmortem dumped: {trigger.bundle or '(memory only)'} "
                f"({trigger.reason})",
                file=sys.stderr,
            )
    result = record["result"]
    print(
        f"{result['completed']} completed, {result['abandoned']} "
        f"abandoned in {result['wall_seconds']:.2f}s; "
        f"{result['cutovers']} cutover(s) ridden, "
        f"{result['unaccounted_frames']} unaccounted frame(s)"
    )
    print(
        f"store: {len(result['store']['versions'])} version(s), "
        f"{result['store']['verified_versions']} verified, "
        f"{result['store']['size_bytes']} bytes"
    )
    failed = sorted(
        name for name, ok in record["checks"].items() if not ok
    )
    for name in failed:
        print(f"error: sched check failed: {name}", file=sys.stderr)
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# repro.obs commands. Exit codes: 0 clean, 1 divergence or violation,
# 2 usage or I/O error.
# ---------------------------------------------------------------------------

def _cmd_obs_timeline(args) -> int:
    from .obs import format_timeline, load_timeline

    try:
        timeline = load_timeline(args.trace)
    except OSError as error:
        raise _UsageError(f"cannot read trace: {error}") from error
    print(format_timeline(timeline, limit=args.limit, channel=args.channel))
    return 0


def _cmd_obs_diff(args) -> int:
    from .obs import diff_trace_files, format_diff

    try:
        diff = diff_trace_files(args.trace_a, args.trace_b)
    except OSError as error:
        raise _UsageError(f"cannot read trace: {error}") from error
    print(
        format_diff(
            diff,
            label_a=args.label_a,
            label_b=args.label_b,
            limit=args.limit,
        )
    )
    return 0 if diff.identical else 1


def _cmd_obs_spans(args) -> int:
    from .obs import (
        check_span_tree,
        format_span_tree,
        read_events,
        reconcile_with_attrib,
        span_tree,
    )

    try:
        events = list(read_events(args.trace))
    except OSError as error:
        raise _UsageError(f"cannot read trace: {error}") from error
    roots = span_tree(events, trace_id=args.trace_id)
    if not roots:
        raise _UsageError(
            "trace holds no finished spans "
            "(was it recorded with 'sched loadtest --trace'?)"
        )
    per_walk, mismatches = reconcile_with_attrib(events)
    if args.trace_id is not None:
        # The reconciliation table follows the filter: keep only walks
        # whose segments belong to the requested trace.
        walks_in_trace = {
            dict(node.span.attrs).get("walk")
            for root in roots
            for node in root.walk()
            if "walk" in dict(node.span.attrs)
        }
        per_walk = {
            walk: info
            for walk, info in per_walk.items()
            if walk in walks_in_trace
        }
    if args.limit and len(per_walk) > args.limit:
        shown = dict(sorted(per_walk.items())[: args.limit])
        print(
            f"(showing {args.limit} of {len(per_walk)} walks; "
            "--limit 0 for all)"
        )
    else:
        shown = per_walk
    print(format_span_tree(roots, reconciliation=shown))
    violations = check_span_tree(roots)
    for problem in violations:
        print(f"error: {problem}", file=sys.stderr)
    for problem in mismatches:
        print(f"error: {problem}", file=sys.stderr)
    return 0 if not violations and not mismatches else 1


def _cmd_obs_postmortem(args) -> int:
    from .obs import format_postmortem, format_span_tree, load_bundle
    from .obs.recorder import bundle_span_tree

    try:
        bundle = load_bundle(args.bundle)
    except OSError as error:
        raise _UsageError(f"cannot read bundle: {error}") from error
    except ValueError as error:
        raise _UsageError(str(error)) from error
    print(format_postmortem(bundle))
    if args.tree:
        roots = bundle_span_tree(bundle)
        if roots:
            print()
            print(format_span_tree(roots))
    return 0


def _cmd_obs_attrib(args) -> int:
    from .obs import attribute_events, format_attribution, read_events

    # An AttributionError (a trace that breaks the additivity invariant)
    # is a divergence in the measured data: main reports it with exit 1.
    try:
        attributions = attribute_events(read_events(args.trace))
    except OSError as error:
        raise _UsageError(f"cannot read trace: {error}") from error
    if not attributions:
        raise _UsageError(
            "trace holds no finished walks to attribute "
            "(was it recorded with 'loadtest --trace'?)"
        )
    print(format_attribution(attributions, slowest=args.slowest))
    inexact = [a for a in attributions if not a.exact]
    if inexact:
        worst = inexact[0]
        print(
            f"error: {len(inexact)} walk(s) violate the exactness "
            f"invariant (first: walk {worst.walk} {worst.key!r}, phases "
            f"sum to {worst.total} but measured access time is "
            f"{worst.access_time})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

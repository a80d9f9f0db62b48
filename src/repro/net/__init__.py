"""Live broadcast transport: an asyncio station, tuner clients, load harness.

Everything below the paper's model is simulated in-process elsewhere in
the repository; this package is where frames actually cross sockets:

* :class:`~repro.net.station.BroadcastStation` — compiles a plan's
  broadcast program to version-1 wire frames and airs one frame per
  channel per slot tick over a TCP fan-out control protocol (one
  :class:`asyncio.Protocol` per connection answers its LISTENs in order
  inside the socket callback, with per-connection backpressure), with
  optional :mod:`repro.faults` injection and clean shutdown;
* :class:`~repro.net.tuner.TunerClient` — an asyncio receiver that
  tunes in mid-cycle, dozes between the slots the pointer walk names,
  hops channels on cross-channel pointers and recovers from lost or
  corrupt airings, all by driving the shared
  :class:`~repro.client.walk.PointerWalk` state machine;
* :func:`~repro.net.harness.drive_fleet` — the one tuner fleet every
  loadtest drives: concurrent tuner coroutines with arrival offsets,
  each walk routed to its station endpoint under one connection gate;
  :func:`~repro.net.harness.summarise_walks` turns one station's walks
  into a :class:`~repro.net.harness.LoadReport`;
* :func:`~repro.net.harness.run_loadtest` — one station and a Poisson
  fleet, reporting throughput, access- and tuning-time distributions
  and loss/retry counters, plus the loopback **parity gate**: at zero
  loss the fleet's measurements must equal the in-process simulator's
  on the identical plan and request trace.
"""

from .clock import SlotClock
from .harness import (
    LoadReport,
    build_demo_plan,
    build_demo_program,
    drive_fleet,
    make_request_trace,
    run_loadtest,
    run_loadtest_bench,
    simulator_baseline,
    summarise_walks,
    trace_simulator,
)
from .station import BroadcastStation
from .tuner import TunerClient, TunerProtocolError

__all__ = [
    "SlotClock",
    "BroadcastStation",
    "TunerClient",
    "TunerProtocolError",
    "LoadReport",
    "build_demo_plan",
    "build_demo_program",
    "drive_fleet",
    "make_request_trace",
    "run_loadtest",
    "run_loadtest_bench",
    "simulator_baseline",
    "summarise_walks",
    "trace_simulator",
]

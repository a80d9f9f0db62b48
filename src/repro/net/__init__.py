"""Live broadcast transport: an asyncio station, tuner clients, load harness.

Everything below the paper's model is simulated in-process elsewhere in
the repository; this package is where frames actually cross sockets:

* :class:`~repro.net.station.BroadcastStation` — compiles a plan's
  broadcast program to version-1 wire frames and airs one frame per
  channel per slot tick, over a TCP fan-out control protocol (default)
  or UDP datagram push, with per-connection send queues, backpressure,
  optional :mod:`repro.faults` injection and clean shutdown;
* :class:`~repro.net.tuner.TunerClient` — an asyncio receiver that
  tunes in mid-cycle, dozes between the slots the pointer walk names,
  hops channels on cross-channel pointers and recovers from lost or
  corrupt airings, all by driving the shared
  :class:`~repro.client.walk.PointerWalk` state machine;
* :func:`~repro.net.harness.run_loadtest` — a fleet of concurrent tuner
  coroutines with Poisson arrivals, reporting throughput, access- and
  tuning-time distributions and loss/retry counters, plus the loopback
  **parity gate**: at zero loss the fleet's measurements must equal the
  in-process simulator's on the identical plan and request trace.
"""

from .clock import SlotClock
from .harness import (
    LoadReport,
    build_demo_plan,
    build_demo_program,
    make_request_trace,
    run_loadtest,
    run_loadtest_bench,
    simulator_baseline,
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
    "make_request_trace",
    "run_loadtest",
    "run_loadtest_bench",
    "simulator_baseline",
    "trace_simulator",
]

"""The serving loop: continuous cycle-by-cycle transmission with live
Poisson request arrivals, protocol-level measurement and periodic
re-planning — the integration layer a deployment runs."""

from .bench import run_server_bench
from .loop import BroadcastServer, CycleStats, ServerReport

__all__ = [
    "BroadcastServer",
    "CycleStats",
    "ServerReport",
    "run_server_bench",
]

"""Mobile-client substrate: the pointer-following access protocol (with
its loss-recovering variant) and the workload simulator measuring
access time, tuning time and channel switches against a compiled
broadcast program."""

from .protocol import (
    AccessRecord,
    RecoveredAccessRecord,
    RecoveryPolicy,
    object_walk,
    recovering_walk,
)
from .simulator import (
    SimulationSummary,
    exact_averages,
    simulate_workload,
    summarise_faulty_records,
)
from .stats import AccessDistribution, access_time_distribution
from .walk import Listen, LookupFailed, PointerWalk, WalkResult

__all__ = [
    "Listen",
    "LookupFailed",
    "PointerWalk",
    "WalkResult",
    "AccessRecord",
    "RecoveredAccessRecord",
    "RecoveryPolicy",
    "object_walk",
    "recovering_walk",
    "SimulationSummary",
    "simulate_workload",
    "summarise_faulty_records",
    "exact_averages",
    "AccessDistribution",
    "access_time_distribution",
]

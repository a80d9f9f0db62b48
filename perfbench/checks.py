"""Output checks: each returns a list of failure descriptions, empty if passed.

The benchmark's figures count only if the program's answers are right,
so every run compares what it measured against an independent path
through the repository: the object-level walks for every socket or
batch walk, formula (1) for every plan, and content ids for every
stored version.
"""

from __future__ import annotations

from repro.client.protocol import object_walk, recovering_walk
from repro.engine.batch import run_batch
from repro.exceptions import ReproError
from repro.faults import FaultInjector
from repro.sched.delta import content_id, plan_to_doc

#: Fields a lossless walk shares with :class:`AccessRecord`.
LOSSLESS_FIELDS = (
    "access_time", "probe_wait", "data_wait", "tuning_time", "channel_switches",
)
#: Extra fields a walk over faulty air shares with ``RecoveredAccessRecord``.
FAULT_FIELDS = LOSSLESS_FIELDS + (
    "lost_buckets", "corrupt_buckets", "retries", "wasted_probes",
    "cycles_spent", "abandoned",
)

_LIMIT = 5  # failure lines kept per check


def _differences(walk, reference, fields) -> list[str]:
    return [
        f"{name} {getattr(walk, name)} != {getattr(reference, name)}"
        for name in fields
        if getattr(walk, name) != getattr(reference, name)
    ]


class _FixedCycle:
    """A compiled program whose cycle length is read once.

    ``BroadcastSchedule.cycle_length`` scans every placement on each
    read, and the reference walks read it per walk. On the 2,500-item
    plan of ``replan-stream`` that scan made the 2,000-walk batch check
    take 1.5 s instead of 0.4 s (2-vCPU x86 host).
    """

    def __init__(self, program) -> None:
        self._program = program
        self.cycle_length = program.cycle_length

    def __getattr__(self, name):
        return getattr(self._program, name)


class WalkOracle:
    """Reference walks of one program, cached per (key, tune slot)."""

    def __init__(self, program, faults=None, policy=None) -> None:
        self.program = _FixedCycle(program)
        self.injector = FaultInjector(faults) if faults is not None else None
        self.policy = policy
        self.leaf = {leaf.label: leaf for leaf in program.schedule.tree.data_nodes()}
        self._cache: dict[tuple[str, int], object] = {}

    def __call__(self, key: str, tune_slot: int):
        found = self._cache.get((key, tune_slot))
        if found is None:
            if self.injector is None and self.policy is None:
                found = object_walk(self.program, self.leaf[key], tune_slot)
            else:
                found = recovering_walk(
                    self.program, self.leaf[key], tune_slot,
                    faults=self.injector, policy=self.policy,
                )
            self._cache[(key, tune_slot)] = found
        return found

    @property
    def fields(self):
        return LOSSLESS_FIELDS if self.injector is None and self.policy is None else FAULT_FIELDS


def walks_match(oracle: WalkOracle, walks, fields=None) -> list[str]:
    """``walks`` holds (key, tune slot, measured walk) triples.

    ``fields`` narrows the comparison for records that carry fewer
    fields than the reference walk.
    """
    failures = []
    for key, tune_slot, walk in walks:
        diff = _differences(walk, oracle(key, tune_slot), fields or oracle.fields)
        if diff:
            failures.append(f"walk {key}@{tune_slot}: " + ", ".join(diff))
            if len(failures) >= _LIMIT:
                break
    return failures


def walks_completed(walks) -> list[str]:
    """Every walk completed: ``walks`` holds (key, tune slot, result, error) rows.

    ``error`` is the exception a failed walk raised, else ``None``.
    """
    return [
        f"walk {key}@{tune_slot} did not complete: "
        + (f"{type(error).__name__}: {error}" if error is not None else "abandoned")
        for key, tune_slot, result, error in walks
        if error is not None or result is None or result.abandoned
    ][:_LIMIT]


def payloads_intact(walks) -> list[str]:
    """Every completed walk delivered its own key's data bucket."""
    return [
        f"walk {key}@{tune_slot} delivered {walk.payload!r}"
        for key, tune_slot, walk in walks
        if not getattr(walk, "abandoned", False) and walk.payload != b"item:" + key.encode()
    ][:_LIMIT]


def frames_accounted(label: str, sent: int, read: int) -> list[str]:
    """Every frame the station answered was read by exactly one walk."""
    if sent != read:
        return [f"{label}: station sent {sent} frames, walks read {read}"]
    return []


def plan_sound(result) -> list[str]:
    """The plan is a feasible allocation and its cost is formula (1)."""
    try:
        result.schedule.validate()
    except ReproError as error:
        return [f"{result.method}: infeasible: {error}"]
    measured = result.schedule.data_wait()
    if abs(measured - result.cost) > 1e-9 * max(1.0, abs(measured)):
        return [f"{result.method}: cost {result.cost!r} != data wait {measured!r}"]
    return []


def store_round_trip(store, record) -> list[str]:
    """Loading a version rebuilds a plan with the published content id."""
    try:
        loaded = store.load(record.version)
    except ReproError as error:
        return [f"version {record.version}: load failed: {error}"]
    got = content_id(plan_to_doc(loaded))
    if got != record.content_id:
        return [f"version {record.version}: content id {got[:12]} != {record.content_id[:12]}"]
    return []


def batch_matches_scalar(program, dense, rng, walks: int, faults, policy) -> list[str]:
    """A sample of batch walks equals the scalar walks, walk by walk.

    Checked twice: lossless against :func:`object_walk`, and under
    ``faults`` with ``policy`` against :func:`recovering_walk`.
    """
    targets = rng.integers(0, dense.n_data, walks)
    tune = rng.integers(1, dense.cycle_length + 1, walks)
    failures = []
    for oracle, kwargs in (
        (WalkOracle(program), {}),
        (WalkOracle(program, faults, policy), {"faults": faults, "recovery": policy}),
    ):
        records = run_batch(dense, targets, tune, **kwargs).to_records()
        failures += walks_match(
            oracle, [(r.target, r.tune_slot, r) for r in records]
        )
    return failures[:_LIMIT]

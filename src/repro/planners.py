"""One planning facade over every allocator in the repository.

The solvers grew up in different modules with different shapes:
:func:`repro.core.optimal.solve` returns an ``OptimalResult``, the §4.2
heuristics return bare schedules, the [SV96] baseline dictates its own
channel count. Every consumer that wanted to choose between them —
the serving loop, the adaptive broadcaster, the analysis runners, the
CLI — therefore hard-coded imports and special-cased each return type.

This module is the API seam that removes those special cases:

* :class:`PlanResult` — the common result shape (schedule + cost +
  method + stats);
* :class:`Planner` — the protocol a planning strategy implements:
  ``plan(tree, channels, *, perf=None, rng=None, **options)``;
* a **registry** mapping stable names (``"auto"``, ``"best-first"``,
  ``"dfs-bnb"``, ``"datatree"``, ``"corollary1"``, ``"sorting"``,
  ``"shrink-combine"``, ``"shrink-partition"``, ``"sv96"``,
  ``"budgeted"``) to planners — :func:`register` adds your own;
* :func:`plan` — the one-call facade: ``plan(tree, channels,
  method="sorting")``.

Registry names are how the rest of the system speaks about planning:
``BroadcastServer(planner="budgeted")``, ``broadcast-alloc solve
--planner dfs-bnb``, the loss-sweep experiment's method axis. New
strategies become available everywhere by registering, without touching
any consumer.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .broadcast.schedule import BroadcastSchedule
from .core.optimal import solve
from .exceptions import ReproError, SearchBudgetExceeded
from .heuristics.channel_allocation import allocate_sorted_tree, sorting_schedule
from .heuristics.shrinking import shrink_and_solve
from .perf import PerfRecorder
from .tree.index_tree import IndexTree

__all__ = [
    "PlanResult",
    "Planner",
    "PlannerNotFound",
    "register",
    "unregister",
    "get_planner",
    "available_planners",
    "plan",
    "plan_catalog",
]


class PlannerNotFound(ReproError, KeyError):
    """No planner is registered under the requested name."""

    def __init__(self, name: str, available: list[str]) -> None:
        super().__init__(
            f"no planner registered as {name!r}; available: "
            f"{', '.join(available)}"
        )
        self.name = name

    def __str__(self) -> str:
        # KeyError's __str__ quotes its argument, as it would a key;
        # this argument is a sentence.
        return str(self.args[0])


@dataclass
class PlanResult:
    """What every planner returns: a schedule with provenance.

    Attributes
    ----------
    schedule:
        The validated broadcast schedule.
    cost:
        Its average data wait (formula (1)) — always the *measured*
        ``schedule.data_wait()`` for heuristics, the proven optimum for
        exact methods (the two agree for those by the solver's own
        invariant).
    method:
        The registry name (or the exact solver's sub-method) that
        produced it.
    stats:
        Method-specific effort counters, ``{}`` when there are none.
    """

    schedule: BroadcastSchedule
    cost: float
    method: str
    stats: dict = field(default_factory=dict)
    # Per-instance compilation caches. These must be real dataclass
    # fields: a bare class attribute would be shared by every
    # PlanResult, so the first instance's compiled program could be
    # served to a different plan whose schedule happened to replace it.
    _program: object = field(default=None, repr=False, compare=False, init=False)
    _dense: object = field(default=None, repr=False, compare=False, init=False)

    def compile(self, level: str = "program"):
        """The compiled form of the plan, cached per instance.

        ``level="program"`` (default) returns the pointer-wired
        :class:`~repro.broadcast.pointers.BroadcastProgram` — what every
        consumer that *executes* a plan needs (the client simulator, the
        serving loop, the :mod:`repro.net` station). ``level="dense"``
        returns the flat-array :class:`~repro.engine.DenseProgram` the
        batch engine runs. Both caches are keyed to the current
        ``schedule`` by identity: replacing the schedule invalidates
        them, and the dense level is rebuilt whenever the program is.
        """
        from .broadcast.pointers import compile_program

        if self._program is None or self._program.schedule is not self.schedule:
            self._program = compile_program(self.schedule)
            self._dense = None  # derived from the program just replaced
        if level == "program":
            return self._program
        if level == "dense":
            if self._dense is None:
                from .engine.dense import compile_dense

                self._dense = compile_dense(self._program)
            return self._dense
        raise ValueError(
            f"unknown compile level {level!r}; expected 'program' or 'dense'"
        )


@runtime_checkable
class Planner(Protocol):
    """The planning strategy protocol.

    A planner is any callable with this signature; ``perf`` and ``rng``
    are keyword-only everywhere (``rng`` exists for stochastic planners
    and is ignored by the deterministic built-ins), and unknown
    ``options`` must raise ``TypeError`` rather than pass silently.
    """

    def __call__(
        self,
        tree: IndexTree,
        channels: int,
        *,
        perf: PerfRecorder | None = None,
        rng: np.random.Generator | None = None,
        **options,
    ) -> PlanResult: ...


_REGISTRY: dict[str, Planner] = {}


def register(name: str, planner: Planner | None = None):
    """Register ``planner`` under ``name`` (usable as a decorator).

    Re-registering a name overwrites it — deliberate, so applications
    can shadow a built-in with a tuned variant.
    """
    if planner is None:

        def decorator(func: Planner) -> Planner:
            _REGISTRY[name] = func
            return func

        return decorator
    _REGISTRY[name] = planner
    return planner


def unregister(name: str) -> None:
    """Remove a registered planner (missing names are ignored)."""
    _REGISTRY.pop(name, None)


def get_planner(name: str) -> Planner:
    """Resolve a registry name to its planner."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PlannerNotFound(name, available_planners()) from None


def available_planners() -> list[str]:
    """Registered planner names, sorted."""
    return sorted(_REGISTRY)


def plan(
    tree: IndexTree,
    channels: int = 1,
    *,
    method: str = "auto",
    perf: PerfRecorder | None = None,
    rng: np.random.Generator | None = None,
    **options,
) -> PlanResult:
    """Allocate ``tree`` onto ``channels`` with the named strategy.

    The facade the rest of the system calls: resolves ``method`` in the
    registry and invokes it. ``options`` pass through to the planner
    (e.g. ``budget=`` for the exact methods, ``max_data_nodes=`` for the
    shrinking ones, ``fallback=`` for ``"budgeted"``).
    """
    return get_planner(method)(
        tree, channels, perf=perf, rng=rng, **options
    )


def plan_catalog(
    labels: "list[str]",
    weights: "list[float]",
    channels: int = 1,
    *,
    method: str = "auto",
    fanout: int = 3,
    perf: PerfRecorder | None = None,
    rng: np.random.Generator | None = None,
    **options,
) -> PlanResult:
    """Index a keyed catalog and allocate it in one call.

    The catalog-level entry point the sharded cluster plans each shard
    through: build an alphabetic index tree over ``labels`` (leaves
    stay in key order so lookup works) weighted by ``weights`` with
    :func:`~repro.tree.alphabetic.build_index` — exact up to its size
    threshold, weight-balanced above it — then run the named registry
    planner on it. ``labels`` must be sorted — a shard's routing
    directory hands each station a key-range slice, and an unsorted
    slice would silently break lookups.

    Planners that carry a ``from_catalog`` attribute (the approximation
    planners in :mod:`repro.approx`) take the **streaming path**: they
    are handed the catalog directly and build whatever index structure
    their strategy wants.
    """
    if len(labels) != len(weights):
        raise ValueError(
            f"catalog has {len(labels)} labels but {len(weights)} weights"
        )
    if not labels:
        raise ValueError("cannot plan an empty catalog")
    # A single adjacent-pair scan, not ``list(labels) != sorted(labels)``:
    # the copy-and-sort check was O(n log n) plus two catalog-sized
    # temporary lists on *every* call — measurable at 10⁶ labels. The
    # perf counter pins the scan's cost to at most n-1 comparisons.
    comparisons = 0
    ordered = True
    rest = iter(labels)
    previous = next(rest)
    for label in rest:
        comparisons += 1
        if label < previous:
            ordered = False
            break
        previous = label
    if perf is not None:
        perf.count("planner.catalog.order_scans")
        perf.count("planner.catalog.order_comparisons", comparisons)
    if not ordered:
        raise ValueError("catalog labels must be in sorted key order")
    planner = get_planner(method)
    direct = getattr(planner, "from_catalog", None)
    if direct is not None:
        return direct(
            list(labels), list(weights), channels,
            fanout=fanout, perf=perf, rng=rng, **options,
        )
    from .tree.alphabetic import build_index

    tree = build_index(list(labels), list(weights), fanout=fanout)
    return plan(tree, channels, method=method, perf=perf, rng=rng, **options)


# ---------------------------------------------------------------------------
# Built-in planners
# ---------------------------------------------------------------------------

def _exact_planner(method: str) -> Planner:
    def planner(
        tree: IndexTree,
        channels: int,
        *,
        perf: PerfRecorder | None = None,
        rng: np.random.Generator | None = None,
        budget: int | None = None,
        **options,
    ) -> PlanResult:
        del rng  # deterministic
        result = solve(
            tree, channels, method=method, perf=perf, budget=budget, **options
        )
        return PlanResult(
            result.schedule, result.cost, result.method, result.stats
        )

    planner.__name__ = f"plan_{method.replace('-', '_')}"
    planner.__doc__ = (
        f"The exact solver facade with ``method={method!r}`` "
        "(see :func:`repro.core.optimal.solve`)."
    )
    return planner


for _method in ("auto", "best-first", "dfs-bnb", "datatree", "corollary1"):
    register(_method, _exact_planner(_method))


@register("sorting")
def plan_sorting(
    tree: IndexTree,
    channels: int,
    *,
    perf: PerfRecorder | None = None,
    rng: np.random.Generator | None = None,
) -> PlanResult:
    """Index Tree Sorting + ``1_To_k_BroadcastChannel`` (§4.2)."""
    del rng
    schedule = sorting_schedule(tree, channels, perf=perf)
    return PlanResult(schedule, schedule.data_wait(), "sorting")


def _shrink_planner(strategy: str) -> Planner:
    def planner(
        tree: IndexTree,
        channels: int,
        *,
        perf: PerfRecorder | None = None,
        rng: np.random.Generator | None = None,
        max_data_nodes: int = 12,
    ) -> PlanResult:
        del rng
        timer = (
            perf.timer(f"planner.shrink-{strategy}.seconds")
            if perf is not None
            else contextlib.nullcontext()
        )
        with timer:
            schedule = shrink_and_solve(
                tree, strategy, max_data_nodes=max_data_nodes
            )
            if channels > 1:
                # The shrink strategies are single-channel; their order
                # feeds the linear-time k-channel allocation, as §4.2
                # prescribes for large trees.
                order = sorted(schedule.nodes(), key=schedule.slot_of)
                schedule = allocate_sorted_tree(tree, channels, order=order)
        return PlanResult(
            schedule, schedule.data_wait(), f"shrink-{strategy}"
        )

    planner.__name__ = f"plan_shrink_{strategy}"
    planner.__doc__ = (
        f"Index Tree Shrinking ({strategy}) piped through the k-channel "
        "allocation for ``channels > 1``."
    )
    return planner


register("shrink-combine", _shrink_planner("combine"))
register("shrink-partition", _shrink_planner("partition"))


@register("sv96")
def plan_sv96(
    tree: IndexTree,
    channels: int,
    *,
    perf: PerfRecorder | None = None,
    rng: np.random.Generator | None = None,
) -> PlanResult:
    """The [SV96] level-per-channel layout (§1.1).

    The scheme dictates its own channel count (one per tree level);
    ``channels`` is recorded as a stat but not obeyed — exactly the
    inflexibility the paper criticises, kept visible here.
    """
    del perf, rng
    from .baselines.level_allocation import (
        sv96_channels_needed,
        sv96_level_schedule,
    )

    schedule = sv96_level_schedule(tree)
    return PlanResult(
        schedule,
        schedule.data_wait(),
        "sv96",
        stats={
            "channels_requested": channels,
            "channels_used": sv96_channels_needed(tree),
        },
    )


@register("budgeted")
def plan_budgeted(
    tree: IndexTree,
    channels: int,
    *,
    perf: PerfRecorder | None = None,
    rng: np.random.Generator | None = None,
    budget: int = 200_000,
    exact_threshold: int | None = None,
    fallback: str = "sorting",
) -> PlanResult:
    """Exact within a search budget, named ``fallback`` planner beyond.

    The production policy the server runs: try the optimal solver with a
    node-expansion ``budget`` (skipped outright when the catalog exceeds
    ``exact_threshold`` data nodes), and fall back to the ``fallback``
    registry planner when exactness is unaffordable. The result's
    ``stats["fell_back"]`` says which side served.
    """
    affordable = (
        exact_threshold is None
        or len(tree.data_nodes()) <= exact_threshold
    )
    if affordable:
        try:
            result = plan(
                tree, channels, method="auto", perf=perf, rng=rng,
                budget=budget,
            )
            result.stats = {**result.stats, "fell_back": False}
            return result
        except SearchBudgetExceeded:
            if perf is not None:
                perf.count("planner.budget_fallbacks")
    result = plan(tree, channels, method=fallback, perf=perf, rng=rng)
    result.stats = {**result.stats, "fell_back": True}
    return result


# Importing repro.approx registers the approximation planners ("ptas",
# "meta"). The import sits at module bottom because those planners call
# back into register()/plan()/PlanResult defined above — the one-way
# late import that makes the registry self-populating without any
# consumer importing repro.approx explicitly.
from . import approx as _approx  # noqa: E402,F401  (registration side effect)

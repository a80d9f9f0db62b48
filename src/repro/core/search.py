"""Best-first search over the (reduced) topological tree (§3.1).

The paper finds the optimal path with best-first search under the
evaluation function ``E(X) = V(X) + U(X)``: ``V(X)`` is the data wait
accumulated along the path to compound node ``X`` and ``U(X)`` an
optimistic estimate for the data nodes still unplaced. Two admissible
estimates are provided:

* ``"adjacent"`` — the paper's: every outstanding data node is assumed to
  air in the very next slot;
* ``"packed"`` — strictly tighter: outstanding data nodes are packed
  k per slot in descending weight starting at the next slot (still a
  lower bound because index nodes only push data later).

Both bounds are maintained **incrementally**: each search state carries
its outstanding data weight and a rank mask over the descending-weight
order (precomputed by :class:`~repro.core.problem.AllocationProblem`),
so generating a successor updates the bound with a per-group delta plus
a memoised packing-term lookup instead of rescanning every data node —
the seed's from-scratch O(n) loop per successor (kept verbatim in
:mod:`repro.core.reference`) is the baseline the ``search-overhaul``
bench suite (:mod:`repro.core.bench`) measures this module against.

States are de-duplicated on ``(available-mask, last-group, slot)``: the
available mask determines the placed set, the last group gates the §3.2
pruning rules, and the slot fixes the cost of every future placement, so
two search nodes agreeing on all three have identical futures and only
the cheapest ``V`` needs expanding. The transposition table suppresses
dominated duplicates at *push* time (never enqueue a state whose
recorded ``g`` is already ≤ the candidate's) and marks states *closed*
at pop time, so equal-cost duplicates are expanded exactly once.
``reduced_children`` calls are memoised on the ``(available,
last_group)`` signature — the §3.2 rules depend on nothing else.

:func:`dfs_branch_and_bound` solves the same problem depth-first with
the same incremental bound against a shrinking incumbent: memory stays
O(depth · branching) instead of the best-first frontier's worst-case
exponential heap, which is what makes thousand-item trees tractable.

Costs are carried *unnormalised* (``Σ W·T``); divide by the total weight
for formula (1).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ..exceptions import InfeasibleError, SearchBudgetExceeded
from ..obs.events import SearchProgress, Tracer
from ..perf import PerfRecorder, Stopwatch
from .candidates import PruningConfig, reduced_children
from .problem import AllocationProblem

__all__ = [
    "SearchResult",
    "best_first_search",
    "dfs_branch_and_bound",
    "lower_bound",
]

#: Expansion interval between ``search_progress`` trace events — rare
#: enough that tracing a million-node search stays cheap, frequent
#: enough to watch a stuck search move.
_TRACE_EVERY = 2000


@dataclass
class SearchResult:
    """Outcome of a topological-tree search.

    Attributes
    ----------
    cost:
        Optimal average data wait (formula (1), normalised).
    path:
        The optimal root-to-leaf path: one sorted id tuple per slot.
    nodes_expanded:
        Compound nodes popped and expanded (search-effort metric).
    nodes_generated:
        Successor nodes pushed onto the frontier.
    seconds:
        Wall-clock time the search took.
    stats:
        Instrumentation counters beyond the two headline node counts
        (duplicate pushes suppressed, stale pops skipped, children-memo
        hits, ...). Populated by the searches; safe to ignore.
    """

    cost: float
    path: list[tuple[int, ...]]
    nodes_expanded: int
    nodes_generated: int
    seconds: float = 0.0
    stats: dict = field(default_factory=dict)


def lower_bound(
    problem: AllocationProblem,
    placed: int,
    slot: int,
    bound: str,
) -> float:
    """Admissible estimate ``U(X)`` of the outstanding weighted wait.

    Public entry point for one-off evaluations; the searches below keep
    the same quantity incrementally per state instead of calling this.
    """
    rank_mask = problem.rank_mask_of(placed)
    outstanding = problem.outstanding_weight(rank_mask)
    if bound == "adjacent":
        return outstanding * (slot + 1)
    if bound == "packed":
        return outstanding * (slot + 1) + problem.packed_tail(rank_mask)
    raise ValueError(f"unknown bound {bound!r} (use 'adjacent' or 'packed')")


def _validate_bound(bound: str) -> bool:
    """Return ``True`` for packed, ``False`` for adjacent; raise otherwise."""
    if bound == "packed":
        return True
    if bound == "adjacent":
        return False
    raise ValueError(f"unknown bound {bound!r} (use 'adjacent' or 'packed')")


def best_first_search(
    problem: AllocationProblem,
    pruning: PruningConfig | None = None,
    *,
    bound: str = "packed",
    node_budget: int | None = None,
    perf: PerfRecorder | None = None,
    tracer: Tracer | None = None,
) -> SearchResult:
    """Optimal allocation via best-first search with an admissible bound.

    ``pruning`` selects the §3.2 candidate rules (``PruningConfig.none()``
    searches the raw Algorithm 1 tree — exact but slow). ``perf``, when
    given, also receives the search's counters and timer; ``tracer``
    additionally narrates progress (one
    :class:`~repro.obs.events.SearchProgress` event per
    :data:`_TRACE_EVERY` expansions, plus a final one). Raises
    :class:`SearchBudgetExceeded` when more than ``node_budget`` compound
    nodes get expanded, and :class:`InfeasibleError` if the frontier
    drains without completing (cannot happen with sound pruning; it
    guards against misconfigured rule subsets).
    """
    if pruning is None:
        pruning = PruningConfig.paper()
    packed = _validate_bound(bound)
    tracing = tracer is not None and tracer.enabled
    watch = Stopwatch().start()

    counter = itertools.count()
    start_available = problem.initial_available()
    start_rank_mask = problem.full_rank_mask
    start_out_weight = problem.total_weight
    # Tuple layout:
    # (f, tiebreak, g, slot, placed, available, last_group,
    #  out_weight, rank_mask, parent_link)
    start = (
        0.0, next(counter), 0.0, 0, 0, start_available, (),
        start_out_weight, start_rank_mask, None,
    )
    frontier: list[tuple] = [start]
    best_g: dict[tuple[int, tuple[int, ...], int], float] = {}
    closed: set[tuple[int, tuple[int, ...], int]] = set()
    children_memo: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    expanded = 0
    generated = 0
    suppressed = 0
    stale = 0
    memo_hits = 0
    packed_tail = problem.packed_tail
    tail_cache = problem._packed_tail_cache
    release = problem.release
    data_rank = problem.data_rank
    weight_of = problem.weight
    heappop = heapq.heappop
    heappush = heapq.heappush

    while frontier:
        (
            f, _, g, slot, placed, available, last_group,
            out_weight, rank_mask, link,
        ) = heappop(frontier)
        if not available:
            return _finish(
                problem, g, link, expanded, generated, watch, perf,
                suppressed, stale, memo_hits, "best-first", tracer,
            )
        state_key = (available, last_group, slot)
        if state_key in closed:
            stale += 1
            continue
        recorded = best_g.get(state_key)
        if recorded is not None and recorded < g:
            stale += 1
            continue
        closed.add(state_key)
        best_g[state_key] = g
        expanded += 1
        if tracing and expanded % _TRACE_EVERY == 0:
            tracer.emit(
                SearchProgress(
                    mode="best-first",
                    nodes_expanded=expanded,
                    nodes_generated=generated,
                )
            )
        if node_budget is not None and expanded > node_budget:
            raise SearchBudgetExceeded(node_budget)

        if (available, last_group) in children_memo:
            memo_hits += 1
        groups = reduced_children(
            problem, placed, available, last_group, pruning,
            memo=children_memo,
        )

        next_slot = slot + 1
        for group in groups:
            next_placed = placed
            next_available = available
            next_rank_mask = rank_mask
            next_out_weight = out_weight
            added_weighted = 0.0
            for node_id in group:
                next_placed |= 1 << node_id
                next_available = release(next_available, node_id)
                rank = data_rank[node_id]
                if rank >= 0:
                    weight = weight_of[node_id]
                    added_weighted += weight * next_slot
                    next_out_weight -= weight
                    next_rank_mask &= ~(1 << rank)
            next_g = g + added_weighted
            next_key = (next_available, group, next_slot)
            if next_key in closed:
                suppressed += 1
                continue
            known = best_g.get(next_key)
            if known is not None and known <= next_g:
                suppressed += 1
                continue
            best_g[next_key] = next_g
            estimate = next_out_weight * (next_slot + 1)
            if packed:
                tail = tail_cache.get(next_rank_mask)
                estimate += packed_tail(next_rank_mask) if tail is None else tail
            generated += 1
            heappush(
                frontier,
                (
                    next_g + estimate,
                    next(counter),
                    next_g,
                    next_slot,
                    next_placed,
                    next_available,
                    group,
                    next_out_weight,
                    next_rank_mask,
                    (group, link),
                ),
            )
    raise InfeasibleError(
        "search frontier drained without a complete allocation; "
        "the active pruning-rule subset stranded every path"
    )


def dfs_branch_and_bound(
    problem: AllocationProblem,
    pruning: PruningConfig | None = None,
    *,
    bound: str = "packed",
    node_budget: int | None = None,
    perf: PerfRecorder | None = None,
    tracer: Tracer | None = None,
) -> SearchResult:
    """Optimal allocation via depth-first branch-and-bound.

    Reuses the incremental lower bound of :func:`best_first_search`
    against a shrinking incumbent: children are visited in ascending
    ``f = g + U`` order (so the first dive is the greedy best-bound
    path, an immediate incumbent), branches with ``f >=`` incumbent are
    cut, and a transposition table prunes revisits of
    ``(available, last_group, slot)`` states at higher-or-equal ``g``.
    Memory stays O(depth · branching) — the mode to reach for when the
    best-first frontier would not fit, per the [SV96]/Broadcast-Disks
    scaling regime of thousands of items.

    Returns the same :class:`SearchResult` shape; ``nodes_expanded``
    counts states whose children were generated.
    """
    if pruning is None:
        pruning = PruningConfig.paper()
    packed = _validate_bound(bound)
    tracing = tracer is not None and tracer.enabled
    watch = Stopwatch().start()

    best_g: dict[tuple[int, tuple[int, ...], int], float] = {}
    children_memo: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    counters = {
        "expanded": 0, "generated": 0, "suppressed": 0,
        "cutoffs": 0, "memo_hits": 0,
    }
    incumbent = {"cost": float("inf"), "path": None}
    packed_tail = problem.packed_tail

    def visit(
        g: float,
        slot: int,
        placed: int,
        available: int,
        last_group: tuple[int, ...],
        out_weight: float,
        rank_mask: int,
        link: tuple | None,
    ) -> None:
        if not available:
            if g < incumbent["cost"]:
                incumbent["cost"] = g
                incumbent["path"] = link
            return
        state_key = (available, last_group, slot)
        recorded = best_g.get(state_key)
        if recorded is not None and recorded <= g:
            counters["suppressed"] += 1
            return
        best_g[state_key] = g
        counters["expanded"] += 1
        if tracing and counters["expanded"] % _TRACE_EVERY == 0:
            tracer.emit(
                SearchProgress(
                    mode="dfs-bnb",
                    nodes_expanded=counters["expanded"],
                    nodes_generated=counters["generated"],
                )
            )
        if node_budget is not None and counters["expanded"] > node_budget:
            raise SearchBudgetExceeded(node_budget)

        if (available, last_group) in children_memo:
            counters["memo_hits"] += 1
        groups = reduced_children(
            problem, placed, available, last_group, pruning,
            memo=children_memo,
        )

        next_slot = slot + 1
        successors = []
        for group in groups:
            next_placed = placed
            next_available = available
            next_rank_mask = rank_mask
            next_out_weight = out_weight
            added_weighted = 0.0
            for node_id in group:
                next_placed |= 1 << node_id
                next_available = problem.release(next_available, node_id)
                rank = problem.data_rank[node_id]
                if rank >= 0:
                    weight = problem.weight[node_id]
                    added_weighted += weight * next_slot
                    next_out_weight -= weight
                    next_rank_mask &= ~(1 << rank)
            next_g = g + added_weighted
            estimate = next_out_weight * (next_slot + 1)
            if packed:
                estimate += packed_tail(next_rank_mask)
            counters["generated"] += 1
            successors.append(
                (
                    next_g + estimate, next_g, next_placed,
                    next_available, group, next_out_weight, next_rank_mask,
                )
            )
        successors.sort(key=lambda s: s[0])
        for (
            f, next_g, next_placed, next_available, group,
            next_out_weight, next_rank_mask,
        ) in successors:
            if f >= incumbent["cost"]:
                counters["cutoffs"] += 1
                continue
            visit(
                next_g, next_slot, next_placed, next_available, group,
                next_out_weight, next_rank_mask, (group, link),
            )

    visit(
        0.0, 0, 0, problem.initial_available(), (),
        problem.total_weight, problem.full_rank_mask, None,
    )
    if incumbent["path"] is None and incumbent["cost"] == float("inf"):
        if problem.initial_available():
            raise InfeasibleError(
                "branch-and-bound exhausted every branch without a "
                "complete allocation; the active pruning-rule subset "
                "stranded every path"
            )
    return _finish(
        problem, incumbent["cost"], incumbent["path"],
        counters["expanded"], counters["generated"], watch, perf,
        counters["suppressed"], counters["cutoffs"], counters["memo_hits"],
        "dfs-bnb", tracer,
    )


def _finish(
    problem: AllocationProblem,
    g: float,
    link: tuple | None,
    expanded: int,
    generated: int,
    watch: Stopwatch,
    perf: PerfRecorder | None,
    suppressed: int,
    stale: int,
    memo_hits: int,
    mode: str,
    tracer: Tracer | None = None,
) -> SearchResult:
    seconds = watch.stop()
    if tracer is not None and tracer.enabled:
        tracer.emit(
            SearchProgress(
                mode=mode,
                nodes_expanded=expanded,
                nodes_generated=generated,
                finished=True,
            )
        )
    path = _reconstruct(link)
    cost = g / problem.total_weight if problem.total_weight else 0.0
    stats = {
        "duplicates_suppressed": suppressed,
        "stale_or_cut": stale,
        "children_memo_hits": memo_hits,
        "mode": mode,
    }
    if perf is not None:
        perf.count(f"{mode}.nodes_expanded", expanded)
        perf.count(f"{mode}.nodes_generated", generated)
        perf.count(f"{mode}.duplicates_suppressed", suppressed)
        perf.count(f"{mode}.children_memo_hits", memo_hits)
        perf.add_seconds(f"{mode}.seconds", seconds)
    return SearchResult(
        cost=cost,
        path=path,
        nodes_expanded=expanded,
        nodes_generated=generated,
        seconds=seconds,
        stats=stats,
    )


def _reconstruct(link: tuple | None) -> list[tuple[int, ...]]:
    path: list[tuple[int, ...]] = []
    while link is not None:
        group, link = link
        path.append(group)
    path.reverse()
    return path

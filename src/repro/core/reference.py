"""Frozen seed implementation of the §3.1 best-first search.

This is the repository's *original* best-first search, kept verbatim in
behaviour (from-scratch O(n) lower bound per generated successor,
pop-time-only duplicate detection with a strict ``<`` dominance test) so
that

* the ``search-overhaul`` bench suite (:mod:`repro.core.bench`) can
  measure the overhauled :mod:`repro.core.search` against a fixed
  baseline — the per-PR perf trajectory the ROADMAP asks for needs an
  anchored zero point;
* differential tests can assert the overhaul returns identical optimal
  costs (the hypothesis property suite runs this oracle against both the
  incremental-bound best-first search and the DFS branch-and-bound).

Do **not** optimise this module; its value is that it never changes.
"""

from __future__ import annotations

import heapq
import itertools

from itertools import combinations

from ..exceptions import InfeasibleError, SearchBudgetExceeded
from .candidates import PruningConfig
from .problem import AllocationProblem
from .search import SearchResult

__all__ = ["seed_lower_bound", "seed_best_first_search"]


def _seed_reduced_children(
    problem: AllocationProblem,
    placed: int,
    available: int,
    last_group: tuple[int, ...],
    config: PruningConfig,
) -> list[tuple[int, ...]]:
    """The seed's candidate generation, frozen (no memo, per-call sorts,
    ``children_of_last`` rebuilt in every step that needs it)."""
    ids = problem.available_ids(available)
    if not ids:
        return []
    k = problem.channels

    if config.forced_completion and not (problem.index_mask & ~placed):
        data_sorted = sorted(ids, key=lambda i: (-problem.weight[i], i))
        return [tuple(sorted(data_sorted[:k]))]

    last_all_index = bool(last_group) and all(
        not problem.is_data[i] for i in last_group
    )

    if config.candidate_filter and last_group:
        children_of_last = 0
        for member in last_group:
            children_of_last |= problem.child_mask[member]
        if last_all_index:
            if k == 1:
                kept_index = [
                    i
                    for i in ids
                    if not problem.is_data[i] and (1 << i) & children_of_last
                ]
                data_children = [
                    i
                    for i in ids
                    if problem.is_data[i] and (1 << i) & children_of_last
                ]
                ids = kept_index
                if data_children:
                    heaviest = min(
                        data_children, key=lambda i: (-problem.weight[i], i)
                    )
                    ids = sorted(ids + [heaviest])
            else:
                survivors = []
                data_kept = []
                for i in ids:
                    if not problem.is_data[i]:
                        survivors.append(i)
                    elif (1 << i) & children_of_last:
                        data_kept.append(i)
                data_kept.sort(key=lambda i: (-problem.weight[i], i))
                ids = sorted(survivors + data_kept[:k])
        else:
            data_in_last = [
                problem.weight[i] for i in last_group if problem.is_data[i]
            ]
            threshold = min(data_in_last)
            ids = [
                i
                for i in ids
                if not problem.is_data[i]
                or (1 << i) & children_of_last
                or problem.weight[i] <= threshold
            ]

    if not ids:
        return []

    size = min(k, len(ids))
    if config.subset_rules:
        data_sorted = sorted(
            (i for i in ids if problem.is_data[i]),
            key=lambda i: (-problem.weight[i], i),
        )
        index_ids = [i for i in ids if not problem.is_data[i]]
        subsets: list[tuple[int, ...]] = []
        for data_count in range(0, min(size, len(data_sorted)) + 1):
            index_count = size - data_count
            if index_count > len(index_ids):
                continue
            data_part = tuple(data_sorted[:data_count])
            for index_part in combinations(index_ids, index_count):
                subsets.append(tuple(sorted(data_part + index_part)))
        if last_all_index and k != 1 and last_group:
            children_of_last = 0
            for member in last_group:
                children_of_last |= problem.child_mask[member]
            subsets = [
                subset
                for subset in subsets
                if any((1 << i) & children_of_last for i in subset)
            ]
    else:
        if len(ids) <= k:
            subsets = [tuple(ids)]
        else:
            subsets = [tuple(s) for s in combinations(ids, k)]

    if config.swap_filter and last_group:
        children_of_last = 0
        for member in last_group:
            children_of_last |= problem.child_mask[member]
        index_in_last = [i for i in last_group if not problem.is_data[i]]
        subsets = [
            subset
            for subset in subsets
            if not _seed_refuted_by_local_swap(
                problem, index_in_last, children_of_last, subset
            )
        ]
    return subsets


def _seed_refuted_by_local_swap(
    problem: AllocationProblem,
    index_in_last: list[int],
    children_of_last: int,
    subset: tuple[int, ...],
) -> bool:
    if not index_in_last:
        return False
    subset_mask = problem.mask_of(subset)
    movable_index_in_last = [
        x for x in index_in_last if not (problem.child_mask[x] & subset_mask)
    ]
    if not movable_index_in_last:
        return False
    for y in subset:
        if (1 << y) & children_of_last:
            continue
        if problem.is_data[y]:
            return True
        smallest_movable = min(
            problem.order[x] for x in movable_index_in_last
        )
        if problem.order[y] > smallest_movable:
            return True
    return False


def seed_lower_bound(
    problem: AllocationProblem,
    placed: int,
    slot: int,
    bound: str,
) -> float:
    """The seed's from-scratch ``U(X)``: rescans every data node."""
    if bound == "adjacent":
        outstanding = 0.0
        for data_id in problem.data_ids:
            if not (placed >> data_id) & 1:
                outstanding += problem.weight[data_id]
        return outstanding * (slot + 1)
    if bound == "packed":
        k = problem.channels
        estimate = 0.0
        position = 0
        for data_id in problem.data_by_weight:  # descending weight
            if (placed >> data_id) & 1:
                continue
            estimate += problem.weight[data_id] * (slot + 1 + position // k)
            position += 1
        return estimate
    raise ValueError(f"unknown bound {bound!r} (use 'adjacent' or 'packed')")


def seed_best_first_search(
    problem: AllocationProblem,
    pruning: PruningConfig | None = None,
    bound: str = "packed",
    node_budget: int | None = None,
) -> SearchResult:
    """The seed best-first search, bug-for-bug.

    Known (retained) behaviours the overhaul fixes:

    * the pop-time dominance test is ``recorded < g``, so an equal-cost
      duplicate state is re-expanded instead of skipped;
    * the lower bound is recomputed from scratch for every generated
      successor;
    * ``reduced_children`` is re-evaluated for every expansion even when
      the ``(available, last_group)`` signature was seen before.
    """
    if pruning is None:
        pruning = PruningConfig.paper()

    counter = itertools.count()
    start_available = problem.initial_available()
    start = (0.0, next(counter), 0.0, 0, 0, start_available, (), None)
    # Tuple layout: (f, tiebreak, g, slot, placed, available, last_group, parent_link)
    frontier: list[tuple] = [start]
    best_g: dict[tuple[int, tuple[int, ...], int], float] = {}
    expanded = 0
    generated = 0

    while frontier:
        f, _, g, slot, placed, available, last_group, link = heapq.heappop(frontier)
        if not available:
            path = _reconstruct(link)
            cost = g / problem.total_weight if problem.total_weight else 0.0
            return SearchResult(
                cost=cost,
                path=path,
                nodes_expanded=expanded,
                nodes_generated=generated,
            )
        state_key = (available, last_group, slot)
        recorded = best_g.get(state_key)
        if recorded is not None and recorded < g:
            continue
        best_g[state_key] = g
        expanded += 1
        if node_budget is not None and expanded > node_budget:
            raise SearchBudgetExceeded(node_budget)

        for group in _seed_reduced_children(
            problem, placed, available, last_group, pruning
        ):
            next_placed = placed
            next_available = available
            added_weighted = 0.0
            next_slot = slot + 1
            for node_id in group:
                next_placed |= 1 << node_id
                next_available = problem.release(next_available, node_id)
                if problem.is_data[node_id]:
                    added_weighted += problem.weight[node_id] * next_slot
            next_g = g + added_weighted
            next_key = (next_available, group, next_slot)
            known = best_g.get(next_key)
            if known is not None and known <= next_g:
                continue
            estimate = seed_lower_bound(problem, next_placed, next_slot, bound)
            generated += 1
            heapq.heappush(
                frontier,
                (
                    next_g + estimate,
                    next(counter),
                    next_g,
                    next_slot,
                    next_placed,
                    next_available,
                    group,
                    (group, link),
                ),
            )
    raise InfeasibleError(
        "search frontier drained without a complete allocation; "
        "the active pruning-rule subset stranded every path"
    )


def _reconstruct(link: tuple | None) -> list[tuple[int, ...]]:
    path: list[tuple[int, ...]] = []
    while link is not None:
        group, link = link
        path.append(group)
    path.reverse()
    return path

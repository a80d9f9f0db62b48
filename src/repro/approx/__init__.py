"""Approximation-scheme planners for million-item catalogs.

The exact topological-tree search and the paper's two §4.2 heuristics
top out at modest tree sizes; the ROADMAP's north star is planning
catalogs of 10⁴–10⁶ items at hardware speed. This package is that
scale layer:

* :mod:`repro.approx.ptas` — a Kenyon–Schabanel–Young-inspired
  approximation planner (registry name ``"ptas"``): leaves are bucketed
  into geometric weight classes, each class gets its own alphabetic
  subtree (the existing :mod:`repro.tree.alphabetic` machinery), and the
  class subtrees are aired in parallel on channel groups sized by the
  square-root rule. The returned plan carries a computed **a-priori
  quality bound** — an upper bound on its data wait, derived from the
  class structure alone — plus the matching information-theoretic lower
  bound, so every ptas plan states how far from optimal it can possibly
  be *before* anything is measured.
* :mod:`repro.approx.meta` — a cost-model meta-planner (registry name
  ``"meta"``): extracts cheap workload features (catalog size, weight
  skew via Gini/entropy — the same quantities a
  :class:`~repro.online.estimator.DecayingFrequencyEstimator` maintains
  on line — channel count, fanout) and dispatches to
  exact / dfs-bnb / shrinking / sorting / ptas, recording the decision
  trace in perf counters, plan stats and
  :class:`~repro.obs.events.PlannerDecision` trace events.
* :mod:`repro.approx.bench` — the ``approx-frontier`` bench suite
  (``repro bench approx-frontier``): sweeps catalog sizes and records
  quality-vs-time frontier points (data-wait ratio vs best-known, plan
  wall time), gated by :mod:`repro.bench` against the committed
  ``benchmarks/history/approx-frontier.jsonl``.

Importing this package registers ``"ptas"`` and ``"meta"`` in the
:mod:`repro.planners` registry; :mod:`repro.planners` itself imports it,
so both names resolve through ``plan()`` / ``plan_catalog()`` without
any caller importing :mod:`repro.approx` explicitly.
"""

from .bench import DEFAULT_SIZES, run_frontier_bench
from .meta import (
    DEFAULT_THRESHOLDS,
    CatalogFeatures,
    decide,
    extract_features,
    features_from_estimator,
    gini_coefficient,
    meta_catalog_plan,
    normalized_entropy,
    plan_meta,
)
from .ptas import WeightClass, geometric_classes, plan_ptas, ptas_catalog_plan

__all__ = [
    "WeightClass",
    "geometric_classes",
    "plan_ptas",
    "ptas_catalog_plan",
    "CatalogFeatures",
    "DEFAULT_THRESHOLDS",
    "decide",
    "extract_features",
    "features_from_estimator",
    "gini_coefficient",
    "meta_catalog_plan",
    "normalized_entropy",
    "plan_meta",
    "DEFAULT_SIZES",
    "run_frontier_bench",
]

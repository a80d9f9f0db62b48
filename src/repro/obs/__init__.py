"""Structured observability: tracing, metrics exposition, slot timelines.

Three layers, all opt-in and all free when unused:

* :mod:`repro.obs.events` — typed trace events (`SlotAired`,
  `SlotRead`, `ChannelHop`, `WalkFinished`, `ReplanStarted/Finished`,
  `SearchProgress`, `FaultInjected`, `FrameDropped`) behind the
  :class:`~repro.obs.events.Tracer` protocol, with a no-op default
  (:data:`~repro.obs.events.NULL_TRACER`), a bounded ring buffer and a
  rotating JSONL sink. The tracer is threaded through the station, the
  tuner fleet, the pointer walk, the serving loop, the solvers and the
  fault injector.
* :mod:`repro.obs.metrics` — counter/gauge/histogram registry that
  absorbs :class:`~repro.perf.PerfRecorder` snapshots and renders
  Prometheus text exposition; :mod:`repro.obs.http` mounts it on an
  asyncio ``/metrics`` + ``/healthz`` endpoint
  (``repro serve --metrics-port``).
* :mod:`repro.obs.timeline` — reconstruct a per-(channel, slot)
  timeline from a JSONL trace and diff two traces (live air vs the
  in-process simulator, lossy vs lossless) down to the first divergent
  slot (``repro obs timeline`` / ``repro obs diff``).

A second layer *explains* what the first records:

* :mod:`repro.obs.attrib` — fold a trace per walk into an additive
  phase breakdown (probe / descent / hop / retry / slack) whose sum is
  bit-identical to the measured access time (``repro obs attrib``);
* :mod:`repro.obs.digest` — deterministic, mergeable integer quantile
  digests backing the registry's :class:`~repro.obs.metrics.Summary`
  series (p50/p95/p99 access, tuning and per-phase times on
  ``/metrics``).

A third layer turns records into *diagnosis*:

* :mod:`repro.obs.spans` — causal spans over logical air time
  (``replan → store.publish → station.cutover → walk segment``),
  wire-propagated through the air envelope and reconstructed
  into trees that reconcile exactly against the attribution layer
  (``repro obs spans``);
* :mod:`repro.obs.recorder` — the always-on flight recorder: bounded
  per-component rings, frozen into a correlated postmortem bundle
  when an anomaly fires (``repro obs postmortem``);
* :mod:`repro.obs.slo` — declarative SLOs with multi-window burn-rate
  alerting over the registry, exposed as ``repro_slo_*`` gauges and
  :class:`~repro.obs.events.AlertFired` events.
"""

from .attrib import (
    PHASES,
    AttributionBuilder,
    AttributionCollector,
    AttributionError,
    WalkAttribution,
    attribute_events,
    attribute_walk,
    format_attribution,
)
from .digest import DEFAULT_QUANTILES, QuantileDigest
from .events import (
    EVENT_TYPES,
    NULL_TRACER,
    AlertFired,
    ChannelHop,
    FaultInjected,
    FrameDropped,
    JsonlTracer,
    NullTracer,
    PlannerDecision,
    RecorderTriggered,
    ReplanFinished,
    ReplanStarted,
    RingBufferTracer,
    SearchProgress,
    SlotAired,
    SlotRead,
    SpanFinished,
    TeeTracer,
    TraceEvent,
    Tracer,
    WalkFinished,
    event_from_dict,
    event_to_dict,
    read_events,
)
from .http import ObsHttpServer
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
    declare_perf_baseline,
    slot_buckets,
)
from .recorder import (
    FlightRecorder,
    bundle_span_tree,
    causal_chain,
    format_postmortem,
    load_bundle,
)
from .slo import SLOSpec, SLOWatchdog, default_slos
from .spans import (
    NO_TRACE,
    ActiveSpan,
    SpanNode,
    SpanTracer,
    TraceContext,
    check_span_tree,
    format_span_tree,
    reconcile_with_attrib,
    span_tracer_of,
    span_tree,
)
from .timeline import (
    SlotCell,
    Timeline,
    TimelineDiff,
    build_timeline,
    diff_timelines,
    diff_trace_files,
    format_diff,
    format_timeline,
    load_timeline,
)

__all__ = [
    # events / tracers
    "TraceEvent",
    "SlotAired",
    "FrameDropped",
    "SlotRead",
    "ChannelHop",
    "WalkFinished",
    "ReplanStarted",
    "ReplanFinished",
    "SearchProgress",
    "FaultInjected",
    "PlannerDecision",
    "SpanFinished",
    "AlertFired",
    "RecorderTriggered",
    "EVENT_TYPES",
    "event_to_dict",
    "event_from_dict",
    "read_events",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RingBufferTracer",
    "JsonlTracer",
    "TeeTracer",
    # metrics + http
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricsRegistry",
    "declare_perf_baseline",
    "slot_buckets",
    "ObsHttpServer",
    # digests
    "QuantileDigest",
    "DEFAULT_QUANTILES",
    # attribution
    "PHASES",
    "WalkAttribution",
    "AttributionError",
    "AttributionBuilder",
    "AttributionCollector",
    "attribute_events",
    "attribute_walk",
    "format_attribution",
    # timeline
    "SlotCell",
    "Timeline",
    "TimelineDiff",
    "build_timeline",
    "load_timeline",
    "diff_timelines",
    "diff_trace_files",
    "format_timeline",
    "format_diff",
    # spans
    "TraceContext",
    "NO_TRACE",
    "ActiveSpan",
    "SpanTracer",
    "span_tracer_of",
    "SpanNode",
    "span_tree",
    "check_span_tree",
    "reconcile_with_attrib",
    "format_span_tree",
    # flight recorder
    "FlightRecorder",
    "load_bundle",
    "causal_chain",
    "format_postmortem",
    "bundle_span_tree",
    # SLO watchdog
    "SLOSpec",
    "SLOWatchdog",
    "default_slos",
]

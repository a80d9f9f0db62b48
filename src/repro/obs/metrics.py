"""Counter/gauge/histogram registry with Prometheus text exposition.

The repository already measures everything through
:class:`repro.perf.PerfRecorder` — flat named monotonic counters and
second-denominated timers. This module turns those snapshots into
something a scraper can consume: a :class:`MetricsRegistry` holding
typed metric families, :meth:`MetricsRegistry.absorb_perf` mapping a
recorder's counters/timers onto Prometheus-named series, and
:meth:`MetricsRegistry.render` emitting the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_
(version 0.0.4) the ``/metrics`` endpoint of :mod:`repro.obs.http`
serves.

Naming: a perf counter ``net.station.frames_sent`` becomes
``repro_net_station_frames_sent_total`` (dots and dashes → underscores,
``repro_`` prefix, ``_total`` suffix); a perf timer ``serve.seconds``
becomes ``repro_serve_seconds_total``. :func:`declare_perf_baseline`
pre-registers the station / tuner-fleet / replan families at zero so a
scrape of a freshly started, idle station already exposes every series
an alerting rule might reference.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from math import ceil
from typing import Iterable

from ..perf import PerfRecorder
from .digest import DEFAULT_QUANTILES, QuantileDigest

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricsRegistry",
    "perf_counter_metric_name",
    "perf_timer_metric_name",
    "declare_perf_baseline",
    "slot_buckets",
    "DEFAULT_PERF_BASELINE",
]

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_VALID_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_VALID_LABEL = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def slot_buckets(cycle_length: int, *, max_cycles: int = 8) -> tuple[float, ...]:
    """Histogram bounds for slot-denominated quantities, from the cycle.

    The generic Prometheus defaults (:data:`DEFAULT_BUCKETS`) are
    tuned for sub-second latencies; slot-valued access and tuning times
    live on a completely different axis whose natural unit *is* the
    cycle length: a lossless walk finishes within two cycles, and the
    default :class:`~repro.client.protocol.RecoveryPolicy` abandons
    after ``max_cycles``. The bounds therefore cover fractions of a
    cycle (⅛, ¼, ½, ¾) for tuning-time-sized values, then whole-cycle
    multiples up to the give-up deadline — deduplicated and ascending,
    so tiny cycles (where ⌈L/8⌉ == ⌈L/4⌉) still yield a valid histogram.
    """
    if cycle_length < 1:
        raise ValueError("cycle_length must be >= 1")
    if max_cycles < 2:
        raise ValueError("max_cycles must be >= 2")
    fractions = {
        ceil(cycle_length / 8),
        ceil(cycle_length / 4),
        ceil(cycle_length / 2),
        ceil(3 * cycle_length / 4),
    }
    multiples = {
        m * cycle_length for m in (1, 2, 3, 4, 6, 8) if m <= max_cycles
    }
    multiples.add(max_cycles * cycle_length)
    return tuple(float(b) for b in sorted(fractions | multiples))


#: The perf counters every live deployment should expose even at zero:
#: the station's air path, the tuner fleet, the serving loop's
#: replan accounting, and the fault-recovery tallies a degraded server
#: reports (PR 2's ``server.faults.*`` family).
DEFAULT_PERF_BASELINE = (
    "net.station.connections",
    "net.station.requests",
    "net.station.frames_sent",
    "net.station.protocol_errors",
    "net.station.lost_aired",
    "net.station.corrupt_aired",
    "net.tuner.connections",
    "net.tuner.fetches",
    "net.tuner.frames",
    "net.tuner.reads",
    "net.tuner.retries",
    "net.tuner.lost",
    "net.tuner.corrupt",
    "net.tuner.abandoned",
    "cycles",
    "requests",
    "replans",
    "server.faults.lost",
    "server.faults.corrupt",
    "server.faults.retries",
    "server.faults.abandoned",
    "server.faults.wasted_probes",
)


def _sanitise(raw: str) -> str:
    name = _INVALID.sub("_", raw.replace(".", "_").replace("-", "_"))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def perf_counter_metric_name(counter: str, *, prefix: str = "repro") -> str:
    """Prometheus series name of perf counter ``counter``."""
    base = _sanitise(counter)
    if prefix:
        base = f"{prefix}_{base}"
    return base if base.endswith("_total") else f"{base}_total"


def perf_timer_metric_name(timer: str, *, prefix: str = "repro") -> str:
    """Prometheus series name of perf timer ``timer`` (seconds)."""
    base = _sanitise(timer)
    if prefix:
        base = f"{prefix}_{base}"
    if not base.endswith("_seconds"):
        base = f"{base}_seconds"
    return f"{base}_total"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_signature(labels: "dict[str, str]") -> str:
    """Canonical (sorted) ``key="value"`` list — the series identity."""
    return ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )


def _series_name(name: str, signature: str, extra: str = "") -> str:
    parts = ",".join(part for part in (signature, extra) if part)
    return f"{name}{{{parts}}}" if parts else name


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Metric:
    """Shared shape: a name, a help string, a type tag, and base labels.

    ``labels`` identify one *child* of a metric family: the family name
    plus the canonical (sorted, escaped) label signature is the series
    identity, so ``{"shard": "0"}`` and ``{"shard": "1"}`` are distinct
    children of one family and render under one ``# HELP`` / ``# TYPE``
    header.
    """

    metric_type = "untyped"

    def __init__(
        self, name: str, help: str, labels: "dict[str, str] | None" = None
    ) -> None:
        if not _VALID_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help or name
        self.labels = {k: str(v) for k, v in (labels or {}).items()}
        for label in self.labels:
            if not _VALID_LABEL.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.label_signature = _label_signature(self.labels)

    def series(self, extra: str = "", *, suffix: str = "") -> str:
        """The exposition series name: base labels merged with ``extra``."""
        return _series_name(self.name + suffix, self.label_signature, extra)

    def samples(self) -> list[tuple[str, float]]:  # pragma: no cover
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing total."""

    metric_type = "counter"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: "dict[str, str] | None" = None,
    ) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Adopt an externally accumulated total (a perf snapshot).

        The perf recorders are themselves monotonic, so adopting their
        running total preserves counter semantics; a smaller value is
        ignored rather than ever moving the series backwards.
        """
        if value > self.value:
            self.value = float(value)

    def samples(self) -> list[tuple[str, float]]:
        return [(self.series(), self.value)]


class Gauge(_Metric):
    """A value that can go anywhere (current slot, queue depth, …)."""

    metric_type = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: "dict[str, str] | None" = None,
    ) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def samples(self) -> list[tuple[str, float]]:
        return [(self.series(), self.value)]


class Histogram(_Metric):
    """Cumulative-bucket histogram (the Prometheus shape).

    ``buckets`` are ascending upper bounds; the ``+Inf`` bucket is
    implicit. Rendered as ``name_bucket{le="…"}`` series plus
    ``name_sum`` and ``name_count``.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        labels: "dict[str, str] | None" = None,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly ascending")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last entry = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def samples(self) -> list[tuple[str, float]]:
        rows: list[tuple[str, float]] = []
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            rows.append(
                (
                    self.series(
                        f'le="{_format_value(bound)}"', suffix="_bucket"
                    ),
                    cumulative,
                )
            )
        cumulative += self.counts[-1]
        rows.append((self.series('le="+Inf"', suffix="_bucket"), cumulative))
        rows.append((self.series(suffix="_sum"), self.sum))
        rows.append((self.series(suffix="_count"), self.count))
        return rows


class Summary(_Metric):
    """Quantile summary backed by a :class:`~repro.obs.digest.QuantileDigest`.

    Rendered in the Prometheus summary shape: one
    ``name{quantile="…"}`` series per configured quantile point plus
    ``name_sum`` and ``name_count``. The digest keeps the quantiles
    deterministic and order-independent (two scrapes of one multiset
    render identically) and integer-exact while the distinct-value
    count fits the bin budget — see :mod:`repro.obs.digest`.
    """

    metric_type = "summary"

    def __init__(
        self,
        name: str,
        help: str = "",
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        max_bins: int = 256,
        labels: "dict[str, str] | None" = None,
    ) -> None:
        super().__init__(name, help, labels)
        points = tuple(float(q) for q in quantiles)
        if not points:
            raise ValueError("summary needs at least one quantile point")
        if any(not 0.0 <= q <= 1.0 for q in points):
            raise ValueError("quantile points must be in [0, 1]")
        if any(q2 <= q1 for q1, q2 in zip(points, points[1:])):
            raise ValueError("quantile points must be strictly ascending")
        self.quantiles = points
        self.digest = QuantileDigest(max_bins=max_bins)

    def observe(self, value: int) -> None:
        self.digest.observe(value)

    def merge_digest(self, shard: QuantileDigest) -> None:
        """Fold one fleet shard's digest into this series."""
        self.digest.merge(shard)

    def samples(self) -> list[tuple[str, float]]:
        rows: list[tuple[str, float]] = [
            (
                self.series(f'quantile="{_format_value(q)}"'),
                self.digest.quantile(q),
            )
            for q in self.quantiles
        ]
        rows.append((self.series(suffix="_sum"), self.digest.total))
        rows.append((self.series(suffix="_count"), self.digest.count))
        return rows


class MetricsRegistry:
    """Named metric families, rendered in one stable-ordered exposition.

    Constructors are get-or-create: asking twice for the same name *and*
    labels returns the same object, and asking for a family with a
    *different* type raises — the same discipline Prometheus client
    libraries enforce. ``labels`` address one child of a family
    (``repro_walk_access_time_slots{shard="2"}``); all children of a
    family share one type and render under one header.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._family_types: dict[str, type] = {}

    def _get_or_create(
        self, cls, name: str, *args, labels=None, **kwargs
    ):
        key = _series_name(name, _label_signature(labels or {}))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.metric_type}, not {cls.metric_type}"
                )
            return existing
        family = self._family_types.get(name)
        if family is not None and family is not cls:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{family.metric_type}, not {cls.metric_type}"
            )
        metric = cls(name, *args, labels=labels, **kwargs)
        self._metrics[key] = metric
        self._family_types[name] = cls
        return metric

    def counter(
        self, name: str, help: str = "", *, labels=None
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels=labels)

    def gauge(self, name: str, help: str = "", *, labels=None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels=labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        *,
        labels=None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, buckets, labels=labels
        )

    def summary(
        self,
        name: str,
        help: str = "",
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        max_bins: int = 256,
        *,
        labels=None,
    ) -> Summary:
        return self._get_or_create(
            Summary, name, help, quantiles, max_bins, labels=labels
        )

    def __contains__(self, name: str) -> bool:
        # A family name matches whether its children are labelled or not;
        # a full series key ('name{a="b"}') matches its exact child.
        return name in self._metrics or name in self._family_types

    def family(self, name: str) -> "list[_Metric]":
        """Every child of family ``name`` (empty when unregistered).

        The evaluation surface the SLO watchdog reads: summing a
        counter family's children gives the fleet-wide total whether
        the harness registered them labelled (per shard) or not.
        """
        return [m for m in self._metrics.values() if m.name == name]

    def __len__(self) -> int:
        return len(self._metrics)

    # -- the PerfRecorder bridge --------------------------------------------
    def absorb_perf(
        self,
        perf: PerfRecorder | dict,
        *,
        prefix: str = "repro",
        labels: "dict[str, str] | None" = None,
    ) -> None:
        """Adopt a recorder's (or ``snapshot()``'s) totals as counters.

        Safe to call on every scrape: counters adopt the latest running
        total, they are never incremented twice for the same work.
        ``labels`` scope the absorbed series to one child — the cluster
        harness absorbs each shard's recorder with
        ``labels={"shard": …}`` so per-shard accounting survives into
        the exposition.
        """
        snapshot = perf.snapshot() if isinstance(perf, PerfRecorder) else perf
        for name, value in snapshot.get("counters", {}).items():
            self.counter(
                perf_counter_metric_name(name, prefix=prefix),
                f"perf counter {name}",
                labels=labels,
            ).set_total(value)
        for name, seconds in snapshot.get("timers", {}).items():
            self.counter(
                perf_timer_metric_name(name, prefix=prefix),
                f"perf timer {name} (seconds)",
                labels=labels,
            ).set_total(seconds)

    # -- exposition ---------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4).

        Children of one family (same name, different labels) render
        consecutively under a single ``# HELP`` / ``# TYPE`` header, as
        the format requires — grouping is by family name, never by the
        naive sort of series keys (which would interleave ``foo`` /
        ``foobar`` / ``foo{…}``).
        """
        families: dict[str, list[_Metric]] = {}
        for metric in self._metrics.values():
            families.setdefault(metric.name, []).append(metric)
        lines: list[str] = []
        for name in sorted(families):
            children = sorted(
                families[name], key=lambda m: m.label_signature
            )
            lines.append(f"# HELP {name} {_escape_help(children[0].help)}")
            lines.append(f"# TYPE {name} {children[0].metric_type}")
            for metric in children:
                for series, value in metric.samples():
                    lines.append(f"{series} {_format_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""


def declare_perf_baseline(
    registry: MetricsRegistry,
    names: Iterable[str] = DEFAULT_PERF_BASELINE,
    *,
    prefix: str = "repro",
) -> None:
    """Pre-register the standard perf counter families at zero.

    A fresh station that has served nothing still exposes the full
    station / fleet / replan vocabulary, so scrapers and alerting rules
    never see series flicker into existence.
    """
    for name in names:
        registry.counter(
            perf_counter_metric_name(name, prefix=prefix),
            f"perf counter {name}",
        )

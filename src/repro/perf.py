"""Lightweight performance instrumentation for the hot paths.

The ROADMAP's north star ("as fast as the hardware allows", a measurable
per-PR perf trajectory) needs the solvers and the serving loop to report
*how much work they did*, not just their answers. This module is the
shared vocabulary for that: named monotonic counters and wall-clock
timers collected into a :class:`PerfRecorder`, threaded through
:class:`~repro.core.search.SearchResult`, the heuristics and
:class:`~repro.server.BroadcastServer`. It also holds the one timing
primitive every bench suite uses, :func:`measure`, which
:mod:`repro.bench` records as a :class:`Timing` (min, median, IQR).

Design constraints:

* **Near-zero overhead when unused.** Everything is plain dict writes;
  no globals, no threads, no logging handlers. Callers that do not pass
  a recorder pay a single ``None`` check.
* **Composable.** Recorders :meth:`merge <PerfRecorder.merge>` so a
  suite runner can aggregate per-case recorders into one record.
* **Serialisable.** :meth:`PerfRecorder.snapshot` returns plain
  ``dict[str, int | float]`` data, ready for ``json.dump``.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

__all__ = ["PerfRecorder", "Stopwatch", "Timing", "measure"]

#: Every timed sample spans at least this many seconds of calls, so a
#: microsecond-scale call is never read off a single clock pair.
MIN_TIME = 0.1

#: Samples per measurement, unless the suite's config fixes its own.
REPEATS = 5


class Stopwatch:
    """A resumable wall-clock timer (``perf_counter`` based).

    ``elapsed`` accumulates across start/stop pairs; reading it while
    running includes the in-flight interval.
    """

    __slots__ = ("elapsed", "_started_at")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started_at: float | None = None

    def start(self) -> "Stopwatch":
        if self._started_at is None:
            self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is not None:
            self.elapsed += time.perf_counter() - self._started_at
            self._started_at = None
        return self.elapsed

    def read(self) -> float:
        """Elapsed seconds so far, without stopping."""
        if self._started_at is None:
            return self.elapsed
        return self.elapsed + (time.perf_counter() - self._started_at)


class PerfRecorder:
    """Named counters and wall-clock timers for one measured activity.

    Counters are monotonic integers (``count``); timers accumulate
    seconds (``timer`` context manager or ``add_seconds``). Both live in
    flat string-keyed dicts so a snapshot is directly JSON-able.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}

    # -- counters -----------------------------------------------------------
    def count(self, name: str, increment: int = 1) -> None:
        """Add ``increment`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + increment

    def set_counter(self, name: str, value: int) -> None:
        """Overwrite counter ``name`` (for externally computed totals)."""
        self.counters[name] = int(value)

    # -- timers -------------------------------------------------------------
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time the enclosed block into timer ``name`` (accumulating)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_seconds(name, time.perf_counter() - started)

    def add_seconds(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    # -- aggregation / export ----------------------------------------------
    def merge(self, other: "PerfRecorder") -> "PerfRecorder":
        """Fold ``other``'s counters and timers into this recorder.

        Same-key entries **add** on both sides: merging two recorders
        that both timed ``"replan.seconds"`` yields the sum of their
        accumulated seconds, exactly as if every block had run against
        one recorder. A :meth:`timer` block still *open* on ``other``
        contributes nothing at merge time — an interval is committed to
        ``other`` (and only ``other``) when its block exits, so merging
        mid-flight never double-counts and never moves in-flight time
        between recorders. ``other`` is read, never mutated.
        """
        for name, value in other.counters.items():
            self.count(name, value)
        for name, seconds in other.timers.items():
            self.add_seconds(name, seconds)
        return self

    def snapshot(self) -> dict[str, dict[str, int | float]]:
        """Plain-dict copy: ``{"counters": {...}, "timers": {...}}``.

        Keys are sorted, so two recorders holding the same measurements
        serialise byte-identically regardless of the order the
        measurements arrived in — stable diffs for ``BENCH_*.json``
        files and the metrics exposition built on top.
        """
        return {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "timers": {
                name: self.timers[name] for name in sorted(self.timers)
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{k}={v}" for k, v in sorted(self.counters.items())]
        parts += [f"{k}={v:.4f}s" for k, v in sorted(self.timers.items())]
        return f"<PerfRecorder {' '.join(parts) or 'empty'}>"


@dataclass(frozen=True)
class Timing:
    """Seconds per call of one :func:`measure`: min, median and IQR.

    Each of the ``repeats`` samples is the mean seconds per call over
    at least ``MIN_TIME`` seconds of calls; ``calls`` counts every call
    across all samples.
    """

    min: float
    median: float
    iqr: float
    repeats: int
    calls: int

    def to_dict(self) -> dict:
        return asdict(self)


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(
    fn: Callable[..., Any],
    *,
    setup: Callable[[], Any] | None = None,
    repeats: int | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[Any, Timing]:
    """Time ``fn``; return ``(its last result, Timing)``.

    Each of ``repeats`` samples (default :data:`REPEATS`) calls ``fn``
    until at least :data:`MIN_TIME` seconds of timed calls have
    accumulated, and keeps the mean seconds per call.
    ``setup``, when given, runs untimed before every call and its
    return value is passed to ``fn``: the hook for workloads that use
    up their input, such as a store that each rollback appends to.
    """
    repeats = REPEATS if repeats is None else repeats
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    samples: list[float] = []
    calls = 0
    result = None
    for _ in range(repeats):
        spent, count = 0.0, 0
        while count == 0 or spent < MIN_TIME:
            args = () if setup is None else (setup(),)
            started = clock()
            result = fn(*args)
            spent += clock() - started
            count += 1
        samples.append(spent / count)
        calls += count
    samples.sort()
    return result, Timing(
        min=samples[0],
        median=_quantile(samples, 0.5),
        iqr=_quantile(samples, 0.75) - _quantile(samples, 0.25),
        repeats=repeats,
        calls=calls,
    )

"""Plumbing shared by every workload: paths, timing, statistics, spans.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has checked that the program's sources are present.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch stores and span files; listed in the root ``.gitignore``.
WORK = ROOT / ".perfbench"
#: Everything a workload imports from the program, timed as set-up.
PROGRAM_MODULES = [
    "repro", "repro.planners", "repro.approx.meta", "repro.sched.store",
    "repro.net.station", "repro.net.tuner", "repro.engine.batch",
]


def nearest_rank(values, q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def window_quantile_ms(windows, q: float, host: "HostSpeed") -> float:
    """The median over windows of each one's ``q``-quantile, in ms, host-scaled.

    ``windows`` holds ``(start, end, latencies in seconds)``. Only
    windows with at least 50 samples count, so even the 90th percentile
    has five samples beyond it; a run too short for any such window
    uses every window that has one.
    """
    full = [w for w in windows if len(w[2]) >= 50] or [w for w in windows if w[2]]
    return 1e3 * statistics.median(
        host.scaled(nearest_rank(latencies, q), start, end) for start, end, latencies in full)


def pooled_ms(windows, q: float) -> float:
    """The ``q``-quantile, in ms, of the latencies of every window together.

    Used for the tail: a single window's 90th percentile rests on a
    tenth of a few hundred walks, and in six-seed probes the pooled one
    spread least between runs (see ``NOTES.md``).
    """
    return 1e3 * nearest_rank([x for _, _, w in windows for x in w], q)


def mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """An independent generator per input stream, all derived from ``seed``."""
    tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:8], "little")
    return np.random.default_rng([seed, tag])


def import_seconds(modules: list[str]) -> float:
    """Wall time of importing ``modules`` in a fresh interpreter.

    An interpreter imports a module once, so the import share of set-up
    is measured in a child process, timed from inside itself.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import " + ", ".join(modules) + "; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def spread_over(rounds: int, picks: int) -> set[int]:
    """``picks`` round indices spread evenly over ``rounds``, the last one included."""
    return {(pick + 1) * rounds // picks - 1 for pick in range(picks)} if picks else set()


class SetupTimes:
    """Set-up steps of repeated set-ups, reported step by step.

    A run sets up once at its start and again at points spread over the
    run (``spread_over``); each repeat records the seconds of every
    step, plus a fresh interpreter's import of the program.
    :meth:`seconds` sums, over the steps, the median over repeats of
    each step's host-scaled seconds. The host's slow spells last seconds
    (see ``HostSpeed``), so repeats back to back would all catch the
    same spell, and one slow step in a repeat would spoil that repeat's
    total.
    """

    def __init__(self) -> None:
        self.repeats: list[tuple[float, float, dict[str, float]]] = []

    def add(self, steps: dict[str, list[float]], started: float) -> None:
        """Record a repeat that began at ``started`` (``time.perf_counter``)."""
        times = {name: sum(samples) for name, samples in steps.items()}
        times["import"] = import_seconds(PROGRAM_MODULES)
        self.repeats.append((started, time.perf_counter(), times))

    def seconds(self, host: "HostSpeed") -> float:
        names = {name for _, _, times in self.repeats for name in times}
        return sum(
            statistics.median(host.scaled(times[name], start, end)
                              for start, end, times in self.repeats if name in times)
            for name in names)


def settle_heap() -> None:
    """Collect everything, then freeze what survives.

    Called before each round of windows, so the collector's work inside
    a window is for objects that window made: neither garbage nor the
    benchmark's own records (walk results, spans) left by earlier
    windows, which would otherwise make later windows pay more. Objects
    frozen earlier are thawed first, so those that died since are freed.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


#: Fewest seconds ``host_kernel`` took on the reference host (2-vCPU
#: x86, loopback) at its fast speed.
HOST_KERNEL_REFERENCE_S = 0.012
_KERNELS_PER_SAMPLE = 5


def host_kernel() -> None:
    """Fixed work of the kinds the program does, in none of its code.

    Interpreted loops over a dict, string formatting, JSON, hashing and
    a numpy sort: ~12 ms on the reference host.
    """
    table = {}
    for index in range(12_000):
        table[f"k{index}"] = (index * 7919) % 1009
    blob = json.dumps(table).encode()
    hashlib.sha256(blob).digest()
    json.loads(blob)
    total = 0
    for value in table.values():
        total += value * value
    values = np.arange(100_000, dtype=np.float64)
    np.sort(values[::-1] * 1.5)


class HostSpeed:
    """How much slower than the reference host the host was, and when.

    The shared hosts this runs on slow every process down by up to ~1.5x
    for seconds to minutes at a time, often longer than a run. The run
    times ``host_kernel`` just before and just after every timed window;
    a window's cost divided by the slowdown measured next to it reads as
    on the reference host (:meth:`scaled`). The kernel runs none of the
    program's code, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, end, seconds)

    def sample(self) -> None:
        """Mean seconds of a few kernels back to back, which, like a
        window of the program's, spans more than one short fast or
        slow moment."""
        started = time.perf_counter()
        for _ in range(_KERNELS_PER_SAMPLE):
            host_kernel()
        ended = time.perf_counter()
        self.samples.append((started, ended, (ended - started) / _KERNELS_PER_SAMPLE))

    def factor(self, start: float, end: float) -> float:
        """The slowdown around ``[start, end]``: the lesser of the last
        sample that ended before it and the first that began after it."""
        before = [kernel for s, e, kernel in self.samples if e <= start][-1:]
        after = [kernel for s, e, kernel in self.samples if s >= end][:1]
        return min(before + after) / HOST_KERNEL_REFERENCE_S

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, as on the reference host."""
        return seconds / self.factor(start, end)

    def slowdown(self) -> float:
        """The run's least slowdown (reported, not used for scaling)."""
        return min(kernel for _, _, kernel in self.samples) / HOST_KERNEL_REFERENCE_S


class Windows:
    """Wall time, CPU time and completions of each timed window.

    A phase is cut into windows spread over the whole run, interleaved
    with the other phases. The shared hosts this runs on switch between
    a fast and a slow speed for seconds at a time (a busy sibling
    hardware thread slows this process by about half, in CPU time as
    well as in wall time), so each window is scaled by the host's
    slowdown measured next to it, and the median window is reported.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float, int]] = []

    def start(self, completed: int) -> None:
        self._open = (time.perf_counter(), time.process_time(), completed)

    def stop(self, completed: int) -> None:
        start, cpu, done = self._open
        self.samples.append(
            (start, time.perf_counter(), time.process_time() - cpu, completed - done))

    def rates(self, host: HostSpeed) -> tuple[float, float]:
        """Median host-scaled (completions per wall second, CPU µs per completion)."""
        busy = [sample for sample in self.samples if sample[3] > 0]
        if not busy:
            raise RuntimeError("no window completed any work")
        return (
            statistics.median(n / host.scaled(end - start, start, end)
                              for start, end, _, n in busy),
            statistics.median(1e6 * host.scaled(cpu, start, end) / n
                              for start, end, cpu, n in busy),
        )


class Spans:
    """In-memory spans: name, start, end, parent index and walk id.

    A recorder made with ``on=False`` records nothing; untraced runs use
    one, and the traced run turns it off briefly to measure what tracing
    costs.
    """

    def __init__(self, on: bool) -> None:
        self.on = on
        self.rows: list[list] = []

    def open(self, name: str, walk: int = -1, parent: int = -1,
             start: float | None = None) -> int:
        if not self.on:
            return -1
        self.rows.append(
            [name, time.perf_counter() if start is None else start,
             None, parent, walk]
        )
        return len(self.rows) - 1

    def close(self, span: int) -> None:
        if span >= 0:
            self.rows[span][2] = time.perf_counter()

    def record(self, name: str, walk: int, parent: int, start: float, end: float) -> None:
        """A span whose interval is already known."""
        if self.on:
            self.rows.append([name, start, end, parent, walk])

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds.

        Self time is a span's duration minus the time its children
        cover; a walk's children run one after another, so their
        durations add.
        """
        child_time = [0.0] * len(self.rows)
        for name, start, end, parent, _ in self.rows:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.rows):
            if end is None:
                continue
            entry = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, walk in self.rows:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "walk": walk}) + "\n")
            handle.write(json.dumps({"self_times": self.self_times()}) + "\n")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: check name -> list of failure descriptions (empty means passed)
    checks: dict[str, list[str]] = field(default_factory=dict)
    #: exception name -> count, for operations that failed
    errors: dict[str, int] = field(default_factory=dict)
    #: (failed, attempted) walks of a known defect's reproducer, if any
    defect: tuple[int, int] | None = None
    host: HostSpeed = field(default_factory=HostSpeed)

    def check(self, name: str, failures: list[str]) -> None:
        self.checks.setdefault(name, []).extend(failures)

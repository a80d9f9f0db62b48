"""Deterministic fixed-bucket quantile digests for slot-valued data.

The paper's objective is a *mean* — formula (1) weights each item's
expected delay — but a fleet operator asks about tails: what is the
p99 access time right now, and which phase of the walk is it spent in?
Answering that from ``/metrics`` needs a quantile sketch that is

* **slot-valued** — access, tuning and per-phase times are integers
  (slots), never fractions, so the sketch bins integers;
* **integer-exact at small n** — while the number of *distinct* values
  fits in the bin budget every quantile is the exact nearest-rank
  order statistic, not an approximation (the regime every test and
  most real scrapes live in);
* **deterministic and order-independent** — two scrapes of the same
  multiset render byte-identical exposition regardless of arrival
  order, which is what lets two runs' scrapes be diffed;
* **mergeable across shards** — a fleet of stations can each keep a
  digest and the merged digest is *exactly* the digest of the
  concatenated stream, not an approximation of it.

The construction is a power-of-two coarsening grid: values are counted
in bins of width ``w`` (initially 1, so bins are exact values); when
the number of occupied bins would exceed ``max_bins`` the width doubles
and bins pairwise collapse (``value // w`` re-derived). Because the
occupied-bin count at any width is monotone in the observed multiset,
the final width is *the minimal power of two whose binning of the full
multiset fits the budget* — a pure function of the multiset, which is
the whole determinism argument. Merging rebins both sides to the wider
grid, adds counts, and re-coarsens; that equals digesting the
concatenation for the same reason.

Quantiles are nearest-rank (``rank = max(1, ceil(q·count))``) over the
sorted bins, reported as the matching bin's lower bound — at width 1
that is exactly the order statistic. The exact ``count`` and ``total``
are tracked separately and never coarsened, so ``_sum``/``_count``
exposition lines are always precise.
"""

from __future__ import annotations

from math import ceil
from typing import Iterable, Iterator

__all__ = ["QuantileDigest", "DEFAULT_QUANTILES"]

#: The quantile points a :class:`~repro.obs.metrics.Summary` exposes by
#: default — the median and the two tails operators alert on.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


class QuantileDigest:
    """Mergeable integer quantile sketch over a power-of-two grid.

    Parameters
    ----------
    max_bins:
        Budget on occupied bins. Width doubles whenever the budget
        would be exceeded, so memory is ``O(max_bins)`` regardless of
        stream length and the worst-case quantile error is one (final)
        bin width. The default comfortably holds every distinct access
        time of the demo programs at width 1, i.e. exactly.
    """

    __slots__ = ("max_bins", "width", "count", "total", "_bins")

    def __init__(self, max_bins: int = 256) -> None:
        if max_bins < 1:
            raise ValueError("max_bins must be >= 1")
        self.max_bins = max_bins
        self.width = 1
        self.count = 0
        self.total = 0
        self._bins: dict[int, int] = {}

    # -- ingest -------------------------------------------------------------
    def observe(self, value: int, weight: int = 1) -> None:
        """Count ``weight`` occurrences of the non-negative integer ``value``."""
        if value != int(value):
            raise ValueError(f"digest values are integer slots, got {value!r}")
        value = int(value)
        if value < 0:
            raise ValueError("digest values must be >= 0")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        self.count += weight
        self.total += value * weight
        bin_index = value // self.width
        self._bins[bin_index] = self._bins.get(bin_index, 0) + weight
        self._coarsen()

    def observe_many(self, values: Iterable[int]) -> None:
        for value in values:
            self.observe(value)

    def _coarsen(self) -> None:
        while len(self._bins) > self.max_bins:
            self.width *= 2
            collapsed: dict[int, int] = {}
            for bin_index, bin_count in self._bins.items():
                half = bin_index // 2
                collapsed[half] = collapsed.get(half, 0) + bin_count
            self._bins = collapsed

    # -- merge --------------------------------------------------------------
    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """Fold ``other`` into ``self`` (in place) and return ``self``.

        Exactly equivalent to having observed both streams in one
        digest: both sides rebin to the wider grid, counts add, and the
        result coarsens if the union needs it. Requires equal
        ``max_bins`` (different budgets would make the result depend on
        merge order).
        """
        if other.max_bins != self.max_bins:
            raise ValueError(
                f"cannot merge digests with different budgets "
                f"({self.max_bins} vs {other.max_bins})"
            )
        target = max(self.width, other.width)
        merged: dict[int, int] = {}
        for digest in (self, other):
            shift = target // digest.width
            for bin_index, bin_count in digest._bins.items():
                rebinned = bin_index // shift
                merged[rebinned] = merged.get(rebinned, 0) + bin_count
        self.width = target
        self._bins = merged
        self.count += other.count
        self.total += other.total
        self._coarsen()
        return self

    # -- query --------------------------------------------------------------
    def quantile(self, q: float) -> int:
        """Nearest-rank ``q``-quantile, as the matching bin's lower bound.

        ``q`` is clamped to [0, 1]; an empty digest reports 0. While
        ``width == 1`` this is the exact order statistic.
        """
        if self.count == 0:
            return 0
        q = min(max(q, 0.0), 1.0)
        rank = max(1, ceil(q * self.count))
        cumulative = 0
        last = 0
        for bin_index in sorted(self._bins):
            last = bin_index
            cumulative += self._bins[bin_index]
            if cumulative >= rank:
                break
        return last * self.width

    def quantiles(self, qs: Iterable[float]) -> list[int]:
        return [self.quantile(q) for q in qs]

    @property
    def mean(self) -> float:
        """Exact mean of the observed stream (``total`` is never binned)."""
        return self.total / self.count if self.count else 0.0

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Yield ``(bin_lower_bound, count)`` in ascending value order."""
        for bin_index in sorted(self._bins):
            yield bin_index * self.width, self._bins[bin_index]

    # -- shard transport ----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able form for shipping a shard's digest to a merger."""
        return {
            "max_bins": self.max_bins,
            "width": self.width,
            "count": self.count,
            "total": self.total,
            "bins": {str(k): v for k, v in sorted(self._bins.items())},
        }

    @classmethod
    def from_dict(cls, record: dict) -> "QuantileDigest":
        digest = cls(max_bins=record["max_bins"])
        digest.width = int(record["width"])
        digest.count = int(record["count"])
        digest.total = int(record["total"])
        digest._bins = {int(k): int(v) for k, v in record["bins"].items()}
        return digest

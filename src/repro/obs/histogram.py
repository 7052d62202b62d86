"""Log-bucketed latency histograms.

The paper's scalability argument (§IV-A, Tables I/II) is about
*distributions*: how long a keypoint poll takes, how long a task waits in
a queue before a core picks it up, how lock hold times stretch as core
counts grow.  Plain counters (sums, means) hide exactly the tail behaviour
those tables are about, so the distribution layer records every sample
into a :class:`Histogram` with power-of-two buckets (HDR-histogram style):

* bucket ``i`` holds samples whose ``bit_length`` is ``i`` — i.e. the
  value range ``[2**(i-1), 2**i - 1]`` (bucket 0 holds exactly 0);
* the bucket list starts empty and grows on demand up to the largest
  sample's bucket, so a histogram that records nothing holds no buckets
  (a cluster world builds a score of them per node); recording is
  O(1) and allocates only when a sample lands beyond every bucket so far;
* percentiles are resolved to the bucket upper bound, clamped into the
  exact observed ``[min, max]``, which bounds the relative error of any
  quantile by 2x — plenty for nanosecond latency work;
* :meth:`merge` folds another histogram in (per-core collection, global
  report).

A histogram is *scrape-aware*: :meth:`to_metrics` renders the stable
summary mapping (``count/min/max/mean/p50/p90/p99/p999``) that
:class:`repro.obs.MetricsRegistry` flattens into dot-paths, so
``pioman.latency.submit_to_complete.p99`` sits right next to the raw
counters it explains.
"""

from __future__ import annotations

from typing import Union

Number = Union[int, float]

#: the summary quantiles exported to the metrics registry — stable paths.
#: labels drop the decimal point: 99.9 scrapes as ``<path>.p999``
PERCENTILES = (50, 90, 99, 99.9)


class Histogram:
    """Power-of-two log-bucketed histogram of non-negative integers."""

    __slots__ = ("_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self._buckets: list[int] = []
        self._count = 0
        self._sum = 0
        self._min = 0
        self._max = 0

    # -- recording ------------------------------------------------------
    def record(self, value: Number) -> None:
        """Record one sample (floats are truncated, negatives clamped)."""
        v = int(value)
        if v < 0:
            v = 0
        try:
            self._buckets[v.bit_length()] += 1
        except IndexError:  # beyond the largest bucket so far: grow
            buckets = self._buckets
            buckets.extend([0] * (v.bit_length() + 1 - len(buckets)))
            buckets[v.bit_length()] += 1
        count = self._count
        if count:
            # a sample is outside [min, max] on at most one side
            if v > self._max:
                self._max = v
            elif v < self._min:
                self._min = v
        else:
            self._min = v
            self._max = v
        self._count = count + 1
        self._sum += v

    def record_many(self, value: Number, count: int) -> None:
        """Record ``count`` identical samples in O(1).

        Snapshot-identical to calling :meth:`record` ``count`` times with
        the same ``value`` — same buckets, count, sum, min/max, and hence
        the same percentiles — but one bucket increment regardless of
        ``count``.  This is what lets the quiescence leap replay thousands
        of elided idle-pass latency samples without a per-sample loop.
        """
        k = int(count)
        if k <= 0:
            return
        v = int(value)
        if v < 0:
            v = 0
        try:
            self._buckets[v.bit_length()] += k
        except IndexError:  # beyond the largest bucket so far: grow
            buckets = self._buckets
            buckets.extend([0] * (v.bit_length() + 1 - len(buckets)))
            buckets[v.bit_length()] += k
        if self._count:
            if v > self._max:
                self._max = v
            elif v < self._min:
                self._min = v
        else:
            self._min = v
            self._max = v
        self._count += k
        self._sum += v * k

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram."""
        if other._count == 0:
            return
        if len(other._buckets) > len(self._buckets):
            self._buckets.extend([0] * (len(other._buckets) - len(self._buckets)))
        for i, n in enumerate(other._buckets):
            self._buckets[i] += n
        if self._count == 0 or other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        self._count += other._count
        self._sum += other._sum

    # -- queries --------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def min(self) -> int:
        return self._min

    @property
    def max(self) -> int:
        return self._max

    @property
    def total(self) -> int:
        """Sum of all recorded samples."""
        return self._sum

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> int:
        """Value at percentile ``p`` (0..100], bucket-resolution.

        Returns the upper bound of the bucket holding the target rank,
        clamped into the exact observed ``[min, max]`` so ``percentile(100)
        == max`` and low percentiles never under-shoot the true minimum.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p!r}")
        if self._count == 0:
            return 0
        target = max(1, -(-self._count * p // 100))  # ceil(count * p / 100)
        seen = 0
        for i, n in enumerate(self._buckets):
            seen += n
            if seen >= target:
                upper = (1 << i) - 1 if i else 0
                return min(max(upper, self._min), self._max)
        return self._max  # pragma: no cover - target <= count always hits

    def buckets(self) -> list[tuple[int, int, int]]:
        """Non-empty buckets as ``(lo, hi, count)`` triples (for docs/tests)."""
        out = []
        for i, n in enumerate(self._buckets):
            if n:
                lo = (1 << (i - 1)) if i else 0
                hi = (1 << i) - 1 if i else 0
                out.append((lo, hi, n))
        return out

    # -- registry integration -------------------------------------------
    def to_metrics(self) -> dict[str, Number]:
        """Stable summary mapping scraped by :class:`MetricsRegistry`.

        The keys below are dot-path suffixes (``<path>.p99`` ...): renaming
        any of them is an API change.
        """
        out: dict[str, Number] = {
            "count": self._count,
            "min": self._min,
            "max": self._max,
            "mean": self.mean(),
        }
        for p in PERCENTILES:
            label = "p" + format(p, "g").replace(".", "")
            out[label] = self.percentile(p)
        return out

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        if not self._count:
            return "<Histogram empty>"
        return (
            f"<Histogram n={self._count} min={self._min} "
            f"p50={self.percentile(50)} p99={self.percentile(99)} max={self._max}>"
        )

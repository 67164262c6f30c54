"""Reusable operation accounting: counters and latency histograms.

* :class:`~repro.disk.disk.Disk` keeps its physical-request statistics in
  an :class:`OpCounters`;
* a :class:`LatencyHistogram` holds a latency stream whose length is not
  bounded in advance: the scheduler's per-request service and response
  times, the NVM tier's acknowledgements.  The figures' exact component
  sums are :class:`~repro.sim.stats.LatencyRecorder`'s.

Histograms use power-of-two buckets (microsecond base), the usual shape
for storage latency distributions: exact counts and exact sums are kept,
so totals and means are precise while percentiles are bucket-resolution.
"""

from __future__ import annotations

import math
from typing import Dict


class OpCounters:
    """Read/write operation and sector counters plus busy time, which
    :class:`~repro.disk.disk.Disk` updates in place per request."""

    __slots__ = (
        "reads",
        "writes",
        "sectors_read",
        "sectors_written",
        "busy_time",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.sectors_read = 0
        self.sectors_written = 0
        self.busy_time = 0.0

    def __repr__(self) -> str:
        return (
            f"OpCounters(reads={self.reads}, writes={self.writes}, "
            f"sectors_read={self.sectors_read}, "
            f"sectors_written={self.sectors_written}, "
            f"busy_time={self.busy_time:.6f}s)"
        )


class LatencyHistogram:
    """Log2-bucketed latency histogram with exact count and sum.

    Bucket ``i`` holds samples in ``[base * 2**i, base * 2**(i+1))``;
    ``base`` defaults to one microsecond.  Sub-base samples (including
    exact zeros) land in a dedicated underflow bucket ``-1``.
    """

    __slots__ = ("base", "buckets", "count", "sum")

    def __init__(self, base: float = 1e-6) -> None:
        if base <= 0.0:
            raise ValueError("histogram base must be positive")
        self.base = base
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0

    def record(self, seconds: float) -> None:
        # NaN fails both comparisons; infinity has no bucket (frexp
        # gives it exponent 0, which would file it as sub-base).
        if not 0.0 <= seconds < math.inf:
            raise ValueError("latencies must be non-negative and finite")
        # frexp gives x = m * 2**e with 0.5 <= m < 1, so e - 1 is
        # floor(log2(x)) exactly -- log2 itself rounds *up* to the next
        # integer just below a power of two.
        index = (
            -1 if seconds < self.base
            else math.frexp(seconds / self.base)[1] - 1
        )
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.sum += seconds

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Upper edge of the bucket holding the requested quantile.

        An *empty* histogram has no quantiles: the result is ``NaN``,
        which survives formatting as the honest "no data" marker --
        returning ``0.0`` here read as "instantaneous", which is
        actively misleading for near-empty quick-run histograms.  With
        1-2 samples every fraction resolves to a real recorded bucket:
        nearest-rank over ``max(1, ceil(fraction * count))`` -- p50 of
        two samples is the first, p99 of anything non-empty is the last
        recorded bucket's upper edge, never an index error.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must lie in [0, 1]")
        if not self.count:
            return float("nan")
        target = max(1, math.ceil(fraction * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                return self.base * 2.0 ** (index + 1)
        return self.base * 2.0 ** (max(self.buckets) + 1)

    def percentiles(self) -> Dict[str, float]:
        """The standard latency report (bucket-resolution seconds): median,
        p95, and the p99/p999 tail the concurrency experiments care about."""
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        if other.base != self.base:
            raise ValueError("cannot merge histograms with different bases")
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.sum += other.sum
        return self

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(n={self.count}, "
            f"mean={self.mean() * 1e3:.3f}ms)"
        )

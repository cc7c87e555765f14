"""Queue-depth-1 latency recording with log-spaced histograms.

A system's :class:`LatencyRecorder` summarizes every read it served:
the mean (the paper's Figure 8 reports *average* read latency, one run
per request size) plus approximate percentiles for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of latency samples (ns)."""

    count: int
    mean_ns: float
    min_ns: float
    max_ns: float
    p50_ns: float
    p99_ns: float

    @staticmethod
    def empty() -> "LatencyStats":
        return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)


class LatencyRecorder:
    """Log2-bucketed latency histogram keeping exact sum/min/max for the mean."""

    __slots__ = ("buckets", "count", "total_ns", "min_ns", "max_ns")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total_ns = 0.0
        self.min_ns = math.inf
        self.max_ns = 0.0

    def record(self, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ValueError("negative latency")
        bucket = max(0, int(latency_ns).bit_length())
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total_ns += latency_ns
        if latency_ns < self.min_ns:
            self.min_ns = latency_ns
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns

    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Approximate percentile from bucket upper bounds."""
        if not self.count:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        target = fraction * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= target:
                return float(min((1 << bucket) - 1, self.max_ns))
        return self.max_ns

    def stats(self) -> LatencyStats:
        if not self.count:
            return LatencyStats.empty()
        return LatencyStats(
            count=self.count,
            mean_ns=self.total_ns / self.count,
            min_ns=self.min_ns,
            max_ns=self.max_ns,
            p50_ns=self.percentile(0.50),
            p99_ns=self.percentile(0.99),
        )


__all__ = ["LatencyRecorder", "LatencyStats"]

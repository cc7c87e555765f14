"""Counters used throughout the stack: hits/misses and traffic.

Plus :class:`LatencyHistogram`, the tail-latency accumulator of the
serving layer: exact percentiles (p50/p95/p99/p99.9) with merge
support, complementing the log-bucketed approximate histogram of
:mod:`repro.sim.latency` that each storage system keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class HitMissCounter:
    """Hit/miss bookkeeping with a derived hit ratio."""

    hits: int = 0
    misses: int = 0

    def hit(self, by: int = 1) -> None:
        self.hits += by

    def miss(self, by: int = 1) -> None:
        self.misses += by

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits / accesses; 0.0 when nothing was accessed yet."""
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


@dataclass
class TrafficMeter:
    """Byte counters over the host/device interconnect.

    ``device_to_host`` is the paper's "I/O traffic on read operations";
    the other directions are tracked for completeness (writes, doorbells
    and Info Area maintenance are negligible but nonzero).
    """

    device_to_host_bytes: int = 0
    host_to_device_bytes: int = 0
    #: Device-to-host bytes caused by write operations (read-modify-
    #: write fetches); excluded from the paper's read-traffic metric.
    write_induced_bytes: int = 0
    #: Bytes the application actually asked for (useful payload).
    demanded_bytes: int = 0
    #: When True, device_read() bytes are attributed to the write path.
    write_context: bool = False

    def device_read(self, nbytes: int) -> None:
        """Record ``nbytes`` moving from the device to the host."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if self.write_context:
            self.write_induced_bytes += nbytes
        else:
            self.device_to_host_bytes += nbytes

    def device_write(self, nbytes: int) -> None:
        """Record ``nbytes`` moving from the host to the device."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        self.host_to_device_bytes += nbytes

    def demand(self, nbytes: int) -> None:
        """Record application-requested payload bytes."""
        if nbytes < 0:
            raise ValueError("negative demand size")
        self.demanded_bytes += nbytes

    @property
    def read_amplification(self) -> float:
        """device_to_host / demanded; 0.0 before any demand."""
        if not self.demanded_bytes:
            return 0.0
        return self.device_to_host_bytes / self.demanded_bytes

    def reset(self) -> None:
        self.device_to_host_bytes = 0
        self.host_to_device_bytes = 0
        self.write_induced_bytes = 0
        self.demanded_bytes = 0
        self.write_context = False


class LatencyHistogram:
    """Exact-percentile latency accumulator with merge support.

    Samples are kept verbatim (nanoseconds) and sorted lazily, so
    ``percentile`` is exact — no bucket rounding — which is what the
    serving layer's p99.9 accounting needs: at production tail ratios
    a log2 bucket is off by up to 2x.  ``merge`` combines shards
    (per-tenant, per-worker) without losing exactness.  Every statistic
    is a function of the sample multiset, never of the recording order:
    simultaneous completions reach the histogram in event tie-break
    order, so the mean is an exactly rounded ``math.fsum``, not a
    running float sum.
    """

    __slots__ = ("_samples", "_sorted")

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted = True

    def record(self, latency_ns: float) -> None:
        if not math.isfinite(latency_ns) or latency_ns < 0:
            raise ValueError(f"invalid latency sample {latency_ns!r}")
        if self._samples and latency_ns < self._samples[-1]:
            self._sorted = False
        self._samples.append(latency_ns)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram (returns self)."""
        for sample in other._samples:
            self.record(sample)
        return self

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean_ns(self) -> float:
        return math.fsum(self._samples) / len(self._samples) if self._samples else 0.0

    @property
    def min_ns(self) -> float:
        return min(self._samples) if self._samples else 0.0

    @property
    def max_ns(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def _ensure_sorted(self) -> list[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    def percentile(self, fraction: float) -> float:
        """Exact nearest-rank percentile; 0.0 when empty.

        ``fraction`` is in [0, 1]; the nearest-rank definition returns
        the smallest sample such that at least ``fraction`` of all
        samples are <= it (so ``percentile(1.0)`` is the maximum and a
        single-sample histogram returns that sample everywhere).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        samples = self._ensure_sorted()
        if not samples:
            return 0.0
        rank = max(1, math.ceil(fraction * len(samples)))
        return samples[rank - 1]

    @property
    def p50_ns(self) -> float:
        return self.percentile(0.50)

    @property
    def p95_ns(self) -> float:
        return self.percentile(0.95)

    @property
    def p99_ns(self) -> float:
        return self.percentile(0.99)

    @property
    def p999_ns(self) -> float:
        return self.percentile(0.999)

    def snapshot(self) -> dict[str, float]:
        """Summary dict (stable key order) for reports and regression."""
        return {
            "count": float(self.count),
            "mean_ns": self.mean_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "p50_ns": self.p50_ns,
            "p95_ns": self.p95_ns,
            "p99_ns": self.p99_ns,
            "p999_ns": self.p999_ns,
        }


__all__ = [
    "HitMissCounter",
    "LatencyHistogram",
    "TrafficMeter",
]

"""Per-tenant serving metrics: throughput, achieved QPS, tail latency.

One :class:`TenantMetrics` per tenant accumulates during the run
(counters + an exact :class:`~repro.sim.stats.LatencyHistogram`; its
request-level part, :class:`RequestMetrics`, is shared with the
cluster's tenants); the server snapshots everything into a
:class:`ServeResult` whose ``to_dict`` is deterministic — same ``ServeConfig`` + seed produces a
byte-identical dict, which is exactly what the determinism regression
test compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterable, Iterator

from repro.sim.stats import LatencyHistogram


#: Integer counters every request-level snapshot reports, as floats.
REQUEST_COUNTERS = ("submitted", "completed", "reads", "writes", "demanded_bytes")


@dataclass
class RequestMetrics:
    """What a serving and a cluster tenant both count: requests and latency.

    Subclasses name their extra integer counters in ``COUNTERS`` and
    extend :meth:`snapshot` with their extra histograms; :meth:`merged`
    folds several accumulators (all tenants) into one.
    """

    tenant: str
    submitted: int = 0
    completed: int = 0
    reads: int = 0
    writes: int = 0
    demanded_bytes: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    COUNTERS: ClassVar[tuple[str, ...]] = ()

    def snapshot(self, elapsed_ns: float) -> dict[str, float]:
        elapsed_s = elapsed_ns / 1e9 if elapsed_ns > 0 else 0.0
        stats = {name: float(getattr(self, name)) for name in REQUEST_COUNTERS + self.COUNTERS}
        stats["achieved_qps"] = self.completed / elapsed_s if elapsed_s else 0.0
        latency = self.latency
        stats["mean_latency_ns"] = latency.mean_ns
        stats["p50_ns"] = latency.p50_ns
        stats["p95_ns"] = latency.p95_ns
        stats["p99_ns"] = latency.p99_ns
        stats["p999_ns"] = latency.p999_ns
        stats["max_ns"] = latency.max_ns
        return stats

    def histograms(self) -> Iterator[tuple[str, LatencyHistogram]]:
        """Every latency histogram, by field name."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, LatencyHistogram):
                yield spec.name, value

    @classmethod
    def merged(cls, parts: Iterable["RequestMetrics"], tenant: str = "overall"):
        """One accumulator holding every part's counts and samples."""
        total = cls(tenant)
        for part in parts:
            for name in REQUEST_COUNTERS + cls.COUNTERS:
                setattr(total, name, getattr(total, name) + getattr(part, name))
            for name, histogram in part.histograms():
                getattr(total, name).merge(histogram)
        return total


@dataclass
class TenantMetrics(RequestMetrics):
    """Live accumulator for one serving tenant (adds QoS admission)."""

    admitted: int = 0
    shed: int = 0
    rate_delayed: int = 0
    queue_delay: LatencyHistogram = field(default_factory=LatencyHistogram)

    COUNTERS: ClassVar[tuple[str, ...]] = ("admitted", "shed", "rate_delayed")

    def snapshot(self, elapsed_ns: float) -> dict[str, float]:
        stats = super().snapshot(elapsed_ns)
        stats["mean_queue_delay_ns"] = self.queue_delay.mean_ns
        return stats


@dataclass
class ServeResult:
    """Snapshot of one serving run (the server's return value)."""

    system: str
    arbitration: str
    elapsed_ns: float
    max_inflight_observed: int
    events_processed: int
    tenants: dict[str, dict[str, float]]
    #: Interconnect/placement backend the run's device was built on.
    backend: str = "pcie_gen3"

    @property
    def total_completed(self) -> int:
        return int(sum(t["completed"] for t in self.tenants.values()))

    @property
    def total_qps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_completed / (self.elapsed_ns / 1e9)

    def tenant(self, name: str) -> dict[str, float]:
        return self.tenants[name]

    def to_dict(self) -> dict[str, object]:
        """Deterministic, JSON-friendly dump (regression-comparable)."""
        return {
            "system": self.system,
            "backend": self.backend,
            "arbitration": self.arbitration,
            "elapsed_ns": self.elapsed_ns,
            "max_inflight_observed": self.max_inflight_observed,
            "events_processed": self.events_processed,
            "tenants": {
                name: dict(sorted(stats.items()))
                for name, stats in sorted(self.tenants.items())
            },
        }


__all__ = ["RequestMetrics", "ServeResult", "TenantMetrics"]

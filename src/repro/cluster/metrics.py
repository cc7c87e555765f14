"""Cluster metrics: per-tenant tails, per-server load, hedging economics.

Mirrors :mod:`repro.serve.metrics` one level up: tenants accumulate
request-level latency (submit at the router to first winning replica
answer), nodes count attempt-level load, and the whole thing
snapshots into a :class:`ClusterResult` whose ``to_dict`` is canonical
— same :class:`~repro.cluster.cluster.ClusterConfig` + seed gives a
byte-identical dict, which is what the determinism and perturbation
regressions digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.serve.metrics import RequestMetrics
from repro.sim.stats import LatencyHistogram


@dataclass
class ClusterTenantMetrics(RequestMetrics):
    """Live accumulator for one tenant's cluster-level requests."""

    #: Hedged-policy accounting: second attempts issued / attempts that
    #: won the race / cancelled before dispatch / completed after the
    #: winner (duplicate work the device actually performed).
    hedges_issued: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    hedges_wasted: int = 0
    #: Reads only — the population replica policies act on (writes are
    #: write-all and pinned to the full replica set regardless).
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    COUNTERS: ClassVar[tuple[str, ...]] = (
        "hedges_issued",
        "hedges_won",
        "hedges_cancelled",
        "hedges_wasted",
    )

    def snapshot(self, elapsed_ns: float) -> dict[str, float]:
        stats = super().snapshot(elapsed_ns)
        reads = self.read_latency
        stats["read_mean_latency_ns"] = reads.mean_ns
        stats["read_p50_ns"] = reads.p50_ns
        stats["read_p99_ns"] = reads.p99_ns
        stats["read_p999_ns"] = reads.p999_ns
        stats["read_max_ns"] = reads.max_ns
        return stats


@dataclass
class ClusterResult:
    """Snapshot of one cluster run (the cluster's return value)."""

    system: str
    backend: str
    policy: str
    arbitration: str
    servers: int
    replication: int
    elapsed_ns: float
    events_processed: int
    tenants: dict[str, dict[str, float]]
    per_server: dict[str, dict[str, float]]
    #: Merged-across-tenants view (cluster-wide tails and throughput).
    overall: dict[str, float]
    #: Fault timeline as fired: ``{time_ns, edge, fault}`` entries.
    fault_timeline: list[dict[str, object]]

    @property
    def total_completed(self) -> int:
        return int(self.overall["completed"])

    @property
    def total_qps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_completed / (self.elapsed_ns / 1e9)

    def tenant(self, name: str) -> dict[str, float]:
        return self.tenants[name]

    def server(self, name: str) -> dict[str, float]:
        return self.per_server[name]

    def to_dict(self) -> dict[str, object]:
        """Deterministic, JSON-friendly dump (digest-comparable)."""
        return {
            "system": self.system,
            "backend": self.backend,
            "policy": self.policy,
            "arbitration": self.arbitration,
            "servers": self.servers,
            "replication": self.replication,
            "elapsed_ns": self.elapsed_ns,
            "events_processed": self.events_processed,
            "tenants": {
                name: dict(sorted(stats.items()))
                for name, stats in sorted(self.tenants.items())
            },
            "per_server": {
                name: dict(sorted(stats.items()))
                for name, stats in sorted(self.per_server.items())
            },
            "overall": dict(sorted(self.overall.items())),
            "fault_timeline": self.fault_timeline,
        }


__all__ = ["ClusterResult", "ClusterTenantMetrics"]

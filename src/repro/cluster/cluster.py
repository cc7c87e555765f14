"""Cluster facade: config in, deterministic :class:`ClusterResult` out.

:class:`ClusterConfig` captures everything that determines a cluster
run — tenants (reusing :class:`repro.serve.server.TenantSpec`), server
count, replication factor, vnode ring seed, replica policy, per-server
interconnect backend, arbitration, fault schedule, seed.  Same config +
seed => byte-identical :class:`~repro.cluster.metrics.ClusterResult`,
faults included; :func:`repro.sim.racecheck.perturbed` proves it by
re-running under seeded tie-break shuffles, exactly as it does for one
server.

Of the tenant QoS knobs, the cluster honours ``weight`` (per-node WRR
arbitration share) and ``queue_depth`` (per-node ring size, block on
full); token-bucket rate limiting and shed-on-full are single-server
admission features that stay in :mod:`repro.serve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.faults import FaultInjector, FaultSpec
from repro.cluster.metrics import ClusterResult
from repro.cluster.node import ClusterNode
from repro.cluster.policies import POLICIES, build_policy
from repro.cluster.ring import HashRing
from repro.cluster.router import Router
from repro.config import SimConfig
from repro.serve.engine import EventLoop
from repro.serve.nvme_mq import ARBITERS
from repro.serve.server import TenantSpec
from repro.sim import racecheck as racecheck_mod
from repro.sim.racecheck import RaceChecker
from repro.sim.stats import LatencyHistogram


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that determines a cluster run (with the system config)."""

    tenants: tuple[TenantSpec, ...]
    #: Number of shard servers; named ``s0`` .. ``s{N-1}``.
    servers: int = 4
    #: Replica copies per key (clamped to the server count by the ring).
    replication: int = 2
    #: Virtual nodes per server on the hash circle.
    vnodes: int = 64
    #: Seed of the vnode layout (independent of the traffic seed).
    ring_seed: int = 17
    #: Replica-read policy: ``primary`` | ``least_outstanding`` | ``hedged``.
    policy: str = "primary"
    #: Hedged policy only: delay before the second attempt.
    hedge_delay_ns: float = 300_000.0
    system: str = "pipette"
    #: Interconnect/placement backend for every server (``None``
    #: inherits the supplied ``SimConfig``'s choice).
    backend: str | None = None
    #: Per-server backend overrides, e.g. ``(("s1", "cxl_lmb"),)`` —
    #: heterogeneous fabrics in one cluster.
    backend_overrides: tuple[tuple[str, str], ...] = ()
    #: ``"rr"`` or ``"wrr"`` NVMe submission-queue arbitration per node.
    arbitration: str = "wrr"
    #: Device slots per server (stage-pipeline concurrency).
    max_inflight_per_server: int = 8
    #: Seed for the open-loop arrival processes.
    seed: int = 42
    fine_grained: bool = True
    #: Optional horizon: stop the loop at this virtual time.
    max_time_ns: float | None = None
    #: Deterministic fault schedule (ordinary timeline events).
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("need at least one tenant")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        if self.servers <= 0:
            raise ValueError("servers must be positive")
        if self.replication <= 0:
            raise ValueError("replication must be positive")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown replica policy {self.policy!r}; choose from {sorted(POLICIES)}"
            )
        if self.arbitration not in ARBITERS:
            raise ValueError(
                f"unknown arbitration {self.arbitration!r}; choose from {sorted(ARBITERS)}"
            )
        if self.max_inflight_per_server <= 0:
            raise ValueError("max_inflight_per_server must be positive")
        server_names = set(self.server_names)
        for server, _backend in self.backend_overrides:
            if server not in server_names:
                raise ValueError(f"backend override targets unknown server {server!r}")
        for spec in self.faults:
            if spec.server not in server_names:
                raise ValueError(f"fault targets unknown server {spec.server!r}")

    @property
    def server_names(self) -> tuple[str, ...]:
        return tuple(f"s{index}" for index in range(self.servers))


class Cluster:
    """N shard servers + router + fault injector on one event loop."""

    def __init__(
        self,
        config: ClusterConfig,
        sim_config: SimConfig | None = None,
        *,
        racecheck: RaceChecker | None = None,
        tiebreak_seed: int | None = None,
    ) -> None:
        self.config = config
        if racecheck is None and racecheck_mod.active():
            racecheck = RaceChecker()
        self.racecheck = racecheck
        self.loop = EventLoop(racecheck=racecheck, tiebreak_seed=tiebreak_seed)
        self.ring = HashRing(
            config.server_names,
            vnodes=config.vnodes,
            replication=config.replication,
            seed=config.ring_seed,
        )
        base_sim = sim_config or SimConfig()
        overrides = dict(config.backend_overrides)
        self.nodes: dict[str, ClusterNode] = {}
        for name in config.server_names:
            backend = overrides.get(name, config.backend)
            node_sim = base_sim.scaled(backend=backend) if backend else base_sim
            self.nodes[name] = ClusterNode(
                self.loop,
                name,
                system=config.system,
                sim_config=node_sim,
                tenants=config.tenants,
                arbitration=config.arbitration,
                max_inflight=config.max_inflight_per_server,
                fine_grained=config.fine_grained,
                racecheck=racecheck,
            )
        self.policy = build_policy(config.policy, config.hedge_delay_ns)
        self.router = Router(
            self.loop,
            self.ring,
            self.nodes,
            self.policy,
            config.tenants,
            seed=config.seed,
            racecheck=racecheck,
        )
        self.injector = FaultInjector(config.faults)
        self.injector.arm(self.loop, self.nodes)

    # --- run -----------------------------------------------------------
    def run(self) -> ClusterResult:
        """Start every client, drain the loop, snapshot the metrics."""
        self.router.start_clients()
        elapsed_ns = self.loop.run(self.config.max_time_ns)
        tenant_states = self.router.tenant_states()
        merged = LatencyHistogram()
        merged_reads = LatencyHistogram()
        totals = {"submitted": 0, "completed": 0, "reads": 0, "writes": 0}
        hedges = {"issued": 0, "won": 0, "cancelled": 0, "wasted": 0}
        for state in tenant_states:
            metrics = state.metrics
            merged.merge(metrics.latency)
            merged_reads.merge(metrics.read_latency)
            totals["submitted"] += metrics.submitted
            totals["completed"] += metrics.completed
            totals["reads"] += metrics.reads
            totals["writes"] += metrics.writes
            hedges["issued"] += metrics.hedges_issued
            hedges["won"] += metrics.hedges_won
            hedges["cancelled"] += metrics.hedges_cancelled
            hedges["wasted"] += metrics.hedges_wasted
        elapsed_s = elapsed_ns / 1e9 if elapsed_ns > 0 else 0.0
        overall = {
            "submitted": float(totals["submitted"]),
            "completed": float(totals["completed"]),
            "reads": float(totals["reads"]),
            "writes": float(totals["writes"]),
            "hedges_issued": float(hedges["issued"]),
            "hedges_won": float(hedges["won"]),
            "hedges_cancelled": float(hedges["cancelled"]),
            "hedges_wasted": float(hedges["wasted"]),
            "achieved_qps": totals["completed"] / elapsed_s if elapsed_s else 0.0,
            "mean_latency_ns": merged.mean_ns,
            "p50_ns": merged.p50_ns,
            "p95_ns": merged.p95_ns,
            "p99_ns": merged.p99_ns,
            "p999_ns": merged.p999_ns,
            "max_ns": merged.max_ns,
            "read_mean_latency_ns": merged_reads.mean_ns,
            "read_p50_ns": merged_reads.p50_ns,
            "read_p99_ns": merged_reads.p99_ns,
            "read_p999_ns": merged_reads.p999_ns,
            "read_max_ns": merged_reads.max_ns,
        }
        # Every node runs the same backend unless overridden; report the
        # common one (or the base config's) plus any per-server drift.
        backend = self.config.backend or next(
            iter(self.nodes.values())
        ).system.config.backend
        return ClusterResult(
            system=self.config.system,
            backend=backend,
            policy=self.config.policy,
            arbitration=self.config.arbitration,
            servers=self.config.servers,
            replication=self.config.replication,
            elapsed_ns=elapsed_ns,
            events_processed=self.loop.processed,
            tenants={
                state.spec.name: state.metrics.snapshot(elapsed_ns)
                for state in tenant_states
            },
            per_server={
                name: node.metrics.snapshot()
                for name, node in sorted(self.nodes.items())
            },
            overall=overall,
            fault_timeline=self.injector.timeline_dict(),
        )


def run_cluster(
    config: ClusterConfig,
    sim_config: SimConfig | None = None,
    *,
    racecheck: RaceChecker | None = None,
    tiebreak_seed: int | None = None,
) -> ClusterResult:
    """Convenience one-shot: build a cluster, run it, return the result."""
    return Cluster(
        config, sim_config, racecheck=racecheck, tiebreak_seed=tiebreak_seed
    ).run()


__all__ = [
    "Cluster",
    "ClusterConfig",
    "run_cluster",
]

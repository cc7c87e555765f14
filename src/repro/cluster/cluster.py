"""Cluster facade: config in, deterministic :class:`ClusterResult` out.

:class:`ClusterConfig` captures everything that determines a cluster
run — tenants (reusing :class:`repro.serve.server.TenantSpec`), server
count, replication factor, vnode ring seed, replica policy, per-server
interconnect backend, arbitration, fault schedule, seed.  Same config +
seed => byte-identical :class:`~repro.cluster.metrics.ClusterResult`,
faults included; :func:`repro.sim.perturb.perturbed` proves it by
re-running under seeded tie-break shuffles, exactly as it does for one
server.

The cluster is a :class:`~repro.cluster.router.Router` plus one
:class:`~repro.serve.server.StorageNode` per server — the node class a
single :class:`~repro.serve.server.StorageServer` runs — so a
one-node, replication-1, ``primary`` cluster serves any tenant set
exactly as the server does, closed loops included.

Of the tenant QoS knobs, the cluster honours ``weight`` (per-node WRR
arbitration share) and ``queue_depth`` (per-node ring size, block on
full).  Token-bucket rate limiting and shed-on-full are single-server
admission features: a tenant that sets them is rejected with
``ValueError`` rather than silently run without them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.cluster.faults import FaultInjector, FaultSpec
from repro.cluster.metrics import ClusterResult, ClusterTenantMetrics
from repro.cluster.policies import POLICIES, build_policy
from repro.cluster.ring import HashRing
from repro.cluster.router import Router
from repro.config import SimConfig
from repro.serve.engine import EventLoop
from repro.serve.qos import SHED
from repro.serve.server import StorageNode, TenantSpec, validate_tenants


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
        validate_tenants(
            self.tenants,
            self.arbitration,
            self.max_inflight_per_server,
            "max_inflight_per_server",
        )
        for spec in self.tenants:
            if spec.qos.rate_limit_qps is not None or spec.qos.full_policy == SHED:
                raise ValueError(
                    f"tenant {spec.name!r}: rate limiting and shed-on-full are "
                    "single-server admission features; the cluster does not run them"
                )
        if self.servers <= 0:
            raise ValueError("servers must be positive")
        if self.replication <= 0:
            raise ValueError("replication must be positive")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown replica policy {self.policy!r}; choose from {sorted(POLICIES)}"
            )
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
    """Router + N storage nodes + fault injector on one event loop."""

    def __init__(
        self,
        config: ClusterConfig,
        sim_config: SimConfig | None = None,
        *,
        tiebreak_seed: int | None = None,
    ) -> None:
        self.config = config
        self.loop = EventLoop(tiebreak_seed=tiebreak_seed)
        self.ring = HashRing(
            config.server_names,
            vnodes=config.vnodes,
            replication=config.replication,
            seed=config.ring_seed,
        )
        self.policy = build_policy(config.policy, config.hedge_delay_ns)
        # The router first: its settler must precede every node's pump.
        self.router = Router(
            self.loop,
            self.ring,
            self.policy,
            config.tenants,
            seed=config.seed,
        )
        base_sim = sim_config or SimConfig()
        overrides = dict(config.backend_overrides)
        self.nodes = self.router.nodes
        for name in config.server_names:
            backend = overrides.get(name, config.backend)
            self.nodes[name] = StorageNode(
                self.loop,
                config.tenants,
                system=config.system,
                sim_config=base_sim.scaled(backend=backend) if backend else base_sim,
                arbitration=config.arbitration,
                max_inflight=config.max_inflight_per_server,
                fine_grained=config.fine_grained,
                on_dispatch=self.router.on_attempt_dispatched,
                on_complete=self.router.on_attempt_done,
                prefix=f"{name}:",
            )
        self.injector = FaultInjector(config.faults)
        self.injector.arm(self.loop, self.nodes)

    # --- run -----------------------------------------------------------
    def run(self) -> ClusterResult:
        """Start every client, drain the loop, snapshot the metrics."""
        self.router.start_clients()
        elapsed_ns = self.loop.run(self.config.max_time_ns)
        tenants = self.router.tenants
        overall = ClusterTenantMetrics.merged(tenant.metrics for tenant in tenants)
        overall_stats = overall.snapshot(elapsed_ns)
        # The cluster-wide view never reported demanded bytes.
        del overall_stats["demanded_bytes"]
        begun = Counter(
            self.config.faults[index].server
            for _, edge, index in self.injector.timeline
            if edge == "begin"
        )
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
                tenant.spec.name: tenant.metrics.snapshot(elapsed_ns) for tenant in tenants
            },
            per_server={
                name: {
                    "attempts": float(node.submitted),
                    "completed": float(node.completed),
                    "cancelled": float(node.dropped),
                    "faults_begun": float(begun[name]),
                }
                for name, node in sorted(self.nodes.items())
            },
            overall=overall_stats,
            fault_timeline=self.injector.timeline_dict(),
        )


def run_cluster(
    config: ClusterConfig,
    sim_config: SimConfig | None = None,
    *,
    tiebreak_seed: int | None = None,
) -> ClusterResult:
    """Convenience one-shot: build a cluster, run it, return the result."""
    return Cluster(config, sim_config, tiebreak_seed=tiebreak_seed).run()


__all__ = [
    "Cluster",
    "ClusterConfig",
    "run_cluster",
]

"""``repro.cluster`` — sharded multi-node serving on one event loop.

The serving layer (:mod:`repro.serve`) proves one :class:`StorageServer`
can run deterministic multi-tenant traffic; this package scales that to
a simulated *cluster*: a front-end :class:`~repro.cluster.router.Router`
consistent-hash-shards the fine-grained cache keyspace across N
:class:`~repro.serve.server.StorageNode` storage servers sharing one
wave+settle :class:`~repro.serve.engine.EventLoop`, with replica-read
policies (primary-only, least-outstanding, hedged-after-delay with
cancel-on-first-win) and a deterministic
:class:`~repro.cluster.faults.FaultInjector` whose faults are ordinary
timeline events.

Same :class:`~repro.cluster.cluster.ClusterConfig` + seed gives a
byte-identical :class:`~repro.cluster.metrics.ClusterResult`, faults
included.
"""

from repro.cluster.cluster import Cluster, ClusterConfig, run_cluster
from repro.cluster.faults import (
    DIE_SLOWDOWN,
    FAULT_KINDS,
    LINK_DEGRADE,
    SERVER_STALL,
    FaultInjector,
    FaultSpec,
    seeded_fault_schedule,
)
from repro.cluster.metrics import ClusterResult
from repro.cluster.policies import (
    HEDGED,
    LEAST_OUTSTANDING,
    POLICIES,
    PRIMARY,
    build_policy,
)
from repro.cluster.ring import HashRing

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterResult",
    "DIE_SLOWDOWN",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "HEDGED",
    "HashRing",
    "LEAST_OUTSTANDING",
    "LINK_DEGRADE",
    "POLICIES",
    "PRIMARY",
    "SERVER_STALL",
    "build_policy",
    "run_cluster",
    "seeded_fault_schedule",
]

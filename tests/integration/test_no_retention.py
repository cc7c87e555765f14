"""Per-request state is handed over, not kept.

A storage system computes each request's queueing demand once, hands
it to the caller as ``last_demand`` and keeps no per-request record,
so serving and cluster runs hold memory flat in the op count.  Only
the harnesses that replay per-read demands collect them.
"""

from __future__ import annotations

from repro.cluster import HEDGED, ClusterConfig, FaultSpec
from repro.cluster.cluster import Cluster
from repro.cluster.faults import SERVER_STALL
from repro.config import MIB
from repro.experiments.runner import run_trace_system
from repro.experiments.scale import get_scale
from repro.serve.server import ServeConfig, StorageServer, TenantSpec
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace
from repro.workloads.trace import ReadOp
from repro.workloads.ycsb import YcsbConfig, ycsb_trace


def _reads(seed: int):
    return synthetic_trace(SyntheticConfig(requests=200, file_size=1 * MIB, seed=seed))


def _updates(seed: int, ops: int = 200):
    """YCSB-A: half reads, half read-modify-write updates."""
    return ycsb_trace(YcsbConfig(workload="A", records=1_024, operations=ops, seed=seed))


def test_serve_keeps_no_demands():
    config = ServeConfig(
        tenants=(
            TenantSpec("reads", _reads(1), max_ops=150),
            TenantSpec("updates", _updates(2), max_ops=150),
        )
    )
    server = StorageServer(config)
    result = server.run()
    assert sum(tenant["completed"] for tenant in result.tenants.values()) == 300
    assert server.system.writes > 0
    assert len(server.system.demands) == 0


def test_cluster_keeps_no_demands():
    config = ClusterConfig(
        tenants=(
            TenantSpec("alpha", _updates(3), mode="open", rate_qps=20_000.0, max_ops=150),
        ),
        servers=4,
        replication=2,
        policy=HEDGED,
        hedge_delay_ns=300_000.0,
        faults=(FaultSpec(SERVER_STALL, "s0", 1.5e6, 4e6),),
    )
    cluster = Cluster(config)
    cluster.run()
    assert sum(node.system.reads + node.system.writes for node in cluster.nodes.values()) > 0
    for node in cluster.nodes.values():
        assert len(node.system.demands) == 0


def test_run_trace_system_collects_one_demand_per_read():
    trace = _updates(4, ops=120)
    system = run_trace_system("pipette", trace, get_scale("tiny").sim_config())
    reads = sum(isinstance(op, ReadOp) for op in trace.ops())
    assert 0 < reads < 120
    assert system.reads == reads == len(system.demands)
    assert system.writes == 120 - reads

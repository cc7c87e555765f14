"""Per-request state is handed over, not kept.

A storage system computes each request's queueing demand once, hands
it to the caller as ``last_demand`` and keeps no per-request record,
so serving and cluster runs hold memory flat in the op count.  Only
the harnesses that replay per-read demands collect them.  Background
work (page-cache write-back) is recorded in detached traces that
nothing keeps either.
"""

from __future__ import annotations

import pytest

from repro.cluster import HEDGED, ClusterConfig, FaultSpec
from repro.cluster.cluster import Cluster
from repro.cluster.faults import SERVER_STALL
from repro.config import MIB
from repro.experiments.runner import run_trace_system
from repro.experiments.scale import get_scale
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.serve.server import ServeConfig, StorageServer, TenantSpec
from repro.system import build_system
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace
from repro.workloads.trace import ReadOp
from repro.workloads.ycsb import YcsbConfig, ycsb_trace

from ..conftest import small_sim_config


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


def _ambient_stages_after(name: str, pairs: int) -> int:
    """Ambient stage count after ``pairs`` write+read pairs.

    The writes dirty pages across a file larger than the page cache,
    so evictions write back in detached traces mid-request.
    """
    system = build_system(name, small_sim_config())
    file_bytes = 4 * MIB
    page = system.fs.page_size
    system.create_file("/data/churn.bin", file_bytes)
    fd = system.open("/data/churn.bin", O_RDWR | O_FINE_GRAINED)
    for index in range(pairs):
        offset = (index * 7_919 * page) % file_bytes
        system.write(fd, offset, b"x" * 128)
        system.read(fd, offset + 256, 64)
    return len(system.tracer.ambient.stages)


@pytest.mark.parametrize("name", ["block-io", "pipette"])
def test_ambient_trace_keeps_no_detached_spans(name):
    assert _ambient_stages_after(name, 500) == _ambient_stages_after(name, 1_000)

"""Differential test: a one-server cluster against the single server.

A cluster of one node, replication 1 and the ``primary`` policy routes
every request to that node, and the node runs on the same
:class:`~repro.serve.server.ServerCore` and
:class:`~repro.sim.queueing.StagePipeline` as
:class:`~repro.serve.server.StorageServer`.  With default QoS (no token
bucket, block on a full ring) the two must therefore serve open-loop
tenants identically: same completions, same latency distribution, same
number of events.

Closed-loop tenants are *not* pinned, because the two differ today in
two ways that change when a completion's follow-up op is fetched:

1. the router's settler is registered after the node's pump, so the
   follow-up op a closed-loop client submits from a completion is
   routed only after that settle pass's fetch, one pass later than the
   server, which pushes it into the ring during the wave;
2. the router orders one tenant's same-wave submissions by content
   (offset, size), not by submission order, so two follow-ups of one
   tenant can enter the ring in the opposite order.

Aligning both (router settler before the pump, submission-order keys)
makes closed-loop runs identical too; that is a change to cluster
semantics and is out of scope here.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.config import MIB
from repro.serve.server import ServeConfig, TenantSpec, serve
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace
from repro.workloads.ycsb import YcsbConfig, ycsb_trace

OPS = 300
PINNED = ("completed", "p50_ns", "p99_ns", "p999_ns", "max_ns", "mean_latency_ns")


def _tenants() -> tuple[TenantSpec, ...]:
    reads = synthetic_trace(SyntheticConfig(requests=OPS, file_size=1 * MIB, seed=40))
    updates = ycsb_trace(YcsbConfig(workload="A", records=1_024, operations=OPS, seed=41))
    return (
        TenantSpec("reads", reads, mode="open", rate_qps=30_000.0, max_ops=OPS),
        TenantSpec("updates", updates, mode="open", rate_qps=15_000.0, max_ops=OPS),
    )


@pytest.mark.parametrize("arbitration", ["wrr", "rr"])
def test_one_node_cluster_matches_server_for_open_loop_tenants(sim_config, arbitration):
    tenants = _tenants()
    server = serve(
        ServeConfig(tenants=tenants, arbitration=arbitration, max_inflight=4, seed=9),
        sim_config,
    )
    cluster = run_cluster(
        ClusterConfig(
            tenants=tenants,
            servers=1,
            replication=1,
            policy="primary",
            arbitration=arbitration,
            max_inflight_per_server=4,
            seed=9,
        ),
        sim_config,
    )
    assert cluster.events_processed == server.events_processed
    for spec in tenants:
        expected = server.tenant(spec.name)
        got = cluster.tenants[spec.name]
        assert expected["completed"] == OPS
        assert {key: got[key] for key in PINNED} == {key: expected[key] for key in PINNED}

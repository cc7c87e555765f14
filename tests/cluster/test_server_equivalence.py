"""Differential test: a one-server cluster against the single server.

A cluster of one node, replication 1 and the ``primary`` policy routes
every request to that node, and the node is the same
:class:`~repro.serve.server.StorageNode` a
:class:`~repro.serve.server.StorageServer` runs.  The router's settler
runs before the node's pump in every settle pass and admits each
tenant's requests in submission order, so the node's rings hold what
the server's rings hold when the pump fetches.  With default QoS (no
token bucket, block on a full ring) the two therefore serve any tenant
set identically, open- and closed-loop, with and without think time:
same completions, same latency distribution, same number of events.

The same closed-loop tenants with think time also pin tie-break
independence: same-instant think events used to submit their own
drawn op, so the tenant's submission order followed the tie-break.
On a four-server, replication-2 cluster they pin it again: there the
closed loops' completions reach the latency histograms in tie-break
order, which a running float sum turned into a drifting mean.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.config import MIB
from repro.serve.qos import TenantQoS
from repro.serve.server import ServeConfig, TenantSpec, serve
from repro.sim.perturb import perturbed
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace
from repro.workloads.ycsb import YcsbConfig, ycsb_trace
from tests.conftest import small_sim_config

OPS = 300
PINNED = ("completed", "p50_ns", "p99_ns", "p999_ns", "max_ns", "mean_latency_ns")


def _traces():
    reads = synthetic_trace(SyntheticConfig(requests=OPS, file_size=1 * MIB, seed=40))
    updates = ycsb_trace(YcsbConfig(workload="A", records=1_024, operations=OPS, seed=41))
    return reads, updates


def _open_tenants() -> tuple[TenantSpec, ...]:
    reads, updates = _traces()
    return (
        TenantSpec("reads", reads, mode="open", rate_qps=30_000.0, max_ops=OPS),
        TenantSpec("updates", updates, mode="open", rate_qps=15_000.0, max_ops=OPS),
    )


def _closed_tenants(think_ns: float) -> tuple[TenantSpec, ...]:
    reads, updates = _traces()
    return (
        TenantSpec(
            "reads",
            reads,
            qos=TenantQoS(weight=3),
            concurrency=8,
            think_ns=think_ns,
            max_ops=OPS,
        ),
        TenantSpec(
            "updates",
            updates,
            qos=TenantQoS(weight=1),
            concurrency=4,
            think_ns=think_ns,
            max_ops=OPS,
        ),
    )


def _serve(tenants, arbitration: str, tiebreak_seed: int | None = None):
    return serve(
        ServeConfig(tenants=tenants, arbitration=arbitration, max_inflight=4, seed=9),
        small_sim_config(),
        tiebreak_seed=tiebreak_seed,
    )


def _one_node_cluster(tenants, arbitration: str, tiebreak_seed: int | None = None):
    return run_cluster(
        ClusterConfig(
            tenants=tenants,
            servers=1,
            replication=1,
            policy="primary",
            arbitration=arbitration,
            max_inflight_per_server=4,
            seed=9,
        ),
        small_sim_config(),
        tiebreak_seed=tiebreak_seed,
    )


def _assert_equivalent(tenants, arbitration: str) -> None:
    server = _serve(tenants, arbitration)
    cluster = _one_node_cluster(tenants, arbitration)
    assert cluster.events_processed == server.events_processed
    for spec in tenants:
        expected = server.tenant(spec.name)
        got = cluster.tenants[spec.name]
        assert expected["completed"] == OPS
        assert {key: got[key] for key in PINNED} == {key: expected[key] for key in PINNED}


@pytest.mark.parametrize("arbitration", ["wrr", "rr"])
def test_one_node_cluster_matches_server_for_open_loop_tenants(arbitration):
    _assert_equivalent(_open_tenants(), arbitration)


@pytest.mark.parametrize("think_ns", [0.0, 5_000.0])
@pytest.mark.parametrize("arbitration", ["wrr", "rr"])
def test_one_node_cluster_matches_server_for_closed_loop_tenants(arbitration, think_ns):
    _assert_equivalent(_closed_tenants(think_ns), arbitration)


@pytest.mark.parametrize("front_end", [_serve, _one_node_cluster], ids=["serve", "cluster"])
def test_closed_loop_think_time_is_tiebreak_independent(front_end):
    tenants = _closed_tenants(5_000.0)
    report = perturbed(lambda seed: front_end(tenants, "wrr", seed), tuple(range(1, 9)))
    assert report.identical, report.render()


def _multi_node_config(policy: str, think_ns: float) -> ClusterConfig:
    return ClusterConfig(
        tenants=_closed_tenants(think_ns),
        servers=4,
        replication=2,
        policy=policy,
        hedge_delay_ns=20_000,
        seed=9,
    )


def _assert_tiebreak_independent(config: ClusterConfig, seeds: tuple[int, ...]) -> None:
    report = perturbed(
        lambda seed: run_cluster(config, small_sim_config(), tiebreak_seed=seed), seeds
    )
    assert report.identical, report.render()


@pytest.mark.parametrize("think_ns", [0.0, 5_000.0])
@pytest.mark.parametrize("policy", ["primary", "least_outstanding", "hedged"])
def test_multi_node_closed_loop_cluster_is_tiebreak_independent(policy, think_ns):
    _assert_tiebreak_independent(_multi_node_config(policy, think_ns), (1, 2, 3, 4))


def test_hedge_timer_due_at_completion_counts_under_every_tiebreak():
    # Some completions land on the exact nanosecond of their hedge
    # deadline; the timer must count as one event whichever runs first.
    _assert_tiebreak_independent(_multi_node_config("hedged", 0.0), tuple(range(1, 17)))

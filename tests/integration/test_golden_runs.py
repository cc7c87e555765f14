"""Golden run digests: serve, cluster and the queueing replay.

``tests/data/golden_runs.json`` pins the sha256 of whole runs of the
three event-loop programs — three serving configs, one cluster config
per replica policy with all three fault kinds active, and one seeded
:class:`~repro.sim.queueing.PipelineSimulator` replay.  A refactor of
the stage pipeline, the server core or the event loop must keep every
digest: any drift in dispatch order, stage keys, settle order or event
count changes a latency or a counter somewhere and fails here.  Each
run, workload generation included, executes under
:func:`tests.conftest.pure_simulation`: a wall-clock read or a global
``random`` draw or reseed fails it.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.integration.test_golden_runs``.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.cluster import ClusterConfig, FaultSpec, run_cluster
from repro.cluster.faults import DIE_SLOWDOWN, LINK_DEGRADE, SERVER_STALL
from repro.config import MIB
from repro.serve.qos import SHED, TenantQoS
from repro.serve.server import ServeConfig, TenantSpec, serve
from repro.sim.perturb import result_digest, tree_digest
from repro.sim.queueing import PipelineSimulator, RequestDemand
from repro.workloads.socialgraph import SocialGraphConfig, social_graph_trace
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace
from repro.workloads.ycsb import YcsbConfig, ycsb_trace
from tests.conftest import pure_simulation, small_sim_config

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / "data" / "golden_runs.json"


def _synthetic(seed: int):
    return synthetic_trace(SyntheticConfig(requests=96, file_size=1 * MIB, seed=seed))


def _ycsb_a(seed: int):
    return ycsb_trace(YcsbConfig(workload="A", records=1_024, operations=96, seed=seed))


def _serve_closed_wrr() -> ServeConfig:
    return ServeConfig(
        tenants=(
            TenantSpec("reader", _synthetic(11), qos=TenantQoS(weight=3), concurrency=8),
            TenantSpec("updater", _ycsb_a(12), qos=TenantQoS(weight=1), concurrency=4),
        ),
        arbitration="wrr",
        max_inflight=8,
    )


def _serve_open_bucket_shed() -> ServeConfig:
    # One tenant waits on its token bucket, the other overflows a short
    # ring and is shed: both admission paths run against one device.
    limited = TenantQoS(rate_limit_qps=20_000.0, burst=2)
    shedding = TenantQoS(queue_depth=4, full_policy=SHED)
    return ServeConfig(
        tenants=(
            TenantSpec("limited", _synthetic(21), qos=limited, mode="open", rate_qps=40_000.0),
            TenantSpec("shedding", _synthetic(22), qos=shedding, mode="open", rate_qps=30_000.0),
        ),
        arbitration="rr",
        max_inflight=4,
        seed=5,
    )


def _serve_open_limited_shed() -> ServeConfig:
    # One tenant both rate-limits and sheds: the bucket delays some ops
    # and a full ring sheds others, so a shed op that touched the
    # bucket (a refunded or a spent token) moves the digest.
    qos = TenantQoS(rate_limit_qps=30_000.0, burst=4, queue_depth=4, full_policy=SHED)
    return ServeConfig(
        tenants=(TenantSpec("bursty", _synthetic(23), qos=qos, mode="open", rate_qps=60_000.0),),
        arbitration="rr",
        max_inflight=2,
        seed=7,
    )


def _cluster(policy: str) -> ClusterConfig:
    tenants = []
    for index, name in enumerate(("alpha", "beta")):
        graph = SocialGraphConfig(
            nodes=1_024,
            operations=150,
            seed=31 + index,
            node_file=f"/data/{name}/nodes.bin",
            edge_file=f"/data/{name}/edges.bin",
        )
        tenants.append(
            TenantSpec(
                name,
                social_graph_trace(graph),
                qos=TenantQoS(weight=index + 1),
                mode="open",
                rate_qps=20_000.0,
                max_ops=150,
            )
        )
    faults = (
        FaultSpec(SERVER_STALL, "s0", 1.5e6, 4e6),
        FaultSpec(DIE_SLOWDOWN, "s1", 2e6, 3e6, channel=2, die_slowdown_factor=6.0),
        FaultSpec(LINK_DEGRADE, "s2", 2.5e6, 3e6, link_degrade_factor=3.0),
    )
    return ClusterConfig(
        tenants=tuple(tenants),
        servers=4,
        replication=2,
        policy=policy,
        hedge_delay_ns=300_000.0,
        seed=42,
        faults=faults,
    )


def _pipeline_digest() -> str:
    rng = random.Random(2024)
    demands = [
        RequestDemand(
            host_ns=rng.expovariate(1 / 2_000.0),
            nand_ns=rng.expovariate(1 / 6_000.0),
            channel=rng.randrange(8),
            pcie_ns=rng.expovariate(1 / 500.0),
        )
        for _ in range(3_000)
    ]
    result = PipelineSimulator(channels=8, host_servers=4).run(
        demands, 16, keep_latencies=True
    )
    return tree_digest(result.latencies_ns)


#: Run name -> digest of that run on the small test system config.
RUNS = {
    "serve-closed-wrr": lambda: result_digest(serve(_serve_closed_wrr(), small_sim_config())),
    "serve-open-bucket-shed": lambda: result_digest(
        serve(_serve_open_bucket_shed(), small_sim_config())
    ),
    "serve-open-limited-shed": lambda: result_digest(
        serve(_serve_open_limited_shed(), small_sim_config())
    ),
    **{
        f"cluster-{policy}-faults": (
            lambda policy=policy: result_digest(run_cluster(_cluster(policy), small_sim_config()))
        )
        for policy in ("primary", "least_outstanding", "hedged")
    },
    "pipeline-replay": _pipeline_digest,
}


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_runs_cover_every_run():
    assert sorted(_golden()) == sorted(RUNS)


def test_limited_shed_run_both_delays_and_sheds():
    result = serve(_serve_open_limited_shed(), small_sim_config()).to_dict()
    bursty = result["tenants"]["bursty"]
    assert bursty["rate_delayed"] > 0
    assert bursty["shed"] > 0


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_digest(name):
    with pure_simulation():
        digest = RUNS[name]()
    assert digest == _golden()[name], (
        f"{name} diverged from its golden run digest: the change altered "
        "dispatch order, stage keys, settle order or the event count"
    )


if __name__ == "__main__":
    print(json.dumps({"digests": {name: run() for name, run in sorted(RUNS.items())}}, indent=2))

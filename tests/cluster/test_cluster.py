"""Integration tests: full cluster runs on one wave+settle loop.

These formalize the acceptance properties of the cluster layer: config
validation, byte-identical determinism (faults included), tie-break
perturbation independence, hedging economics, and write-all
replication accounting.
"""

import json

import pytest

from repro.cluster import ClusterConfig, FaultSpec, run_cluster
from repro.cluster.faults import DIE_SLOWDOWN, LINK_DEGRADE, SERVER_STALL
from repro.serve.qos import TenantQoS
from repro.serve.server import TenantSpec
from repro.sim.perturb import perturbed, result_digest
from repro.workloads.socialgraph import SocialGraphConfig, social_graph_trace

RATE_QPS = 20_000.0


def _tenants(ops=150, mode="open"):
    specs = []
    for index, name in enumerate(("alpha", "beta")):
        graph = SocialGraphConfig(
            nodes=1_024,
            operations=ops,
            seed=31 + index,
            node_file=f"/data/{name}/nodes.bin",
            edge_file=f"/data/{name}/edges.bin",
        )
        kwargs = (
            {"mode": "open", "rate_qps": RATE_QPS}
            if mode == "open"
            else {"concurrency": 8}
        )
        specs.append(
            TenantSpec(
                name,
                social_graph_trace(graph),
                qos=TenantQoS(weight=index + 1),
                max_ops=ops,
                **kwargs,
            )
        )
    return tuple(specs)


def _stall(start_ns=1.5e6, duration_ns=4e6):
    return FaultSpec(SERVER_STALL, "s0", start_ns, duration_ns)


def _all_faults():
    return (
        _stall(),
        FaultSpec(DIE_SLOWDOWN, "s1", 2e6, 3e6, channel=2, die_slowdown_factor=6.0),
        FaultSpec(LINK_DEGRADE, "s2", 2.5e6, 3e6, link_degrade_factor=3.0),
    )


def _config(policy="primary", faults=(), tenants=None, **overrides):
    kwargs = dict(
        tenants=_tenants() if tenants is None else tenants,
        servers=4,
        replication=2,
        policy=policy,
        hedge_delay_ns=300_000.0,
        system="pipette",
        seed=42,
        faults=tuple(faults),
    )
    kwargs.update(overrides)
    return ClusterConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(tenants=())
    spec = _tenants()[0]
    with pytest.raises(ValueError, match="duplicate"):
        _config(tenants=(spec, spec))
    with pytest.raises(ValueError):
        _config(servers=0)
    with pytest.raises(ValueError):
        _config(replication=0)
    with pytest.raises(ValueError, match="unknown replica policy"):
        _config(policy="coin_flip")
    with pytest.raises(ValueError, match="unknown arbitration"):
        _config(arbitration="lottery")
    with pytest.raises(ValueError):
        _config(max_inflight_per_server=0)
    with pytest.raises(ValueError, match="unknown server"):
        _config(faults=(FaultSpec(SERVER_STALL, "s9", 0.0, 1.0),))
    with pytest.raises(ValueError, match="unknown server"):
        _config(backend_overrides=(("s9", "cxl_lmb"),))


@pytest.mark.parametrize(
    "qos",
    [TenantQoS(rate_limit_qps=10_000.0), TenantQoS(queue_depth=4, full_policy="shed")],
    ids=["rate-limit", "shed"],
)
def test_config_rejects_single_server_admission_features(qos):
    alpha, beta = _tenants()
    limited = TenantSpec("alpha", alpha.trace, qos=qos, mode="open", rate_qps=RATE_QPS)
    with pytest.raises(ValueError, match="single-server admission"):
        _config(tenants=(limited, beta))


def test_all_requests_complete(sim_config):
    result = run_cluster(_config(), sim_config)
    overall = result.overall
    assert overall["completed"] == overall["submitted"] == 300.0
    assert overall["reads"] + overall["writes"] == overall["completed"]
    assert result.total_completed == 300
    assert result.elapsed_ns > 0
    assert result.events_processed > 0


def test_byte_identical_determinism(sim_config):
    config = _config(policy="hedged", faults=_all_faults())
    first = run_cluster(config, sim_config)
    second = run_cluster(config, sim_config)
    assert result_digest(first) == result_digest(second)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("policy", ["primary", "least_outstanding", "hedged"])
def test_perturbation_independence_with_faults(sim_config, policy):
    """Same result under >= 4 seeded tie-break shuffles, faults active."""
    config = _config(policy=policy, faults=_all_faults())
    report = perturbed(
        lambda seed: run_cluster(config, sim_config, tiebreak_seed=seed), (1, 2, 3, 4)
    )
    assert report.identical, report.render()


def test_write_all_replication_accounting(sim_config):
    """Every attempt is accounted: reads + hedges + RF * writes."""
    result = run_cluster(_config(policy="hedged", faults=(_stall(),)), sim_config)
    overall = result.overall
    attempts = sum(stats["attempts"] for stats in result.per_server.values())
    assert attempts == (
        overall["reads"] + overall["hedges_issued"] + 2 * overall["writes"]
    )
    done = sum(stats["completed"] for stats in result.per_server.values())
    cancelled = sum(stats["cancelled"] for stats in result.per_server.values())
    assert done + cancelled == attempts


def test_hedging_counters_consistent(sim_config):
    result = run_cluster(_config(policy="hedged", faults=(_stall(),)), sim_config)
    overall = result.overall
    assert overall["hedges_issued"] > 0
    assert overall["hedges_won"] <= overall["hedges_issued"]
    # Each issued hedge ends exactly one way; wasted also counts primary
    # losers, hence >=.
    assert (
        overall["hedges_won"] + overall["hedges_cancelled"] + overall["hedges_wasted"]
        >= overall["hedges_issued"]
    )


def test_hedged_beats_primary_read_tail_under_stall(sim_config):
    """The acceptance property: hedging caps the read tail a stall causes."""
    stall = (_stall(),)
    primary = run_cluster(_config(policy="primary", faults=stall), sim_config)
    hedged = run_cluster(_config(policy="hedged", faults=stall), sim_config)
    assert hedged.overall["read_p999_ns"] < primary.overall["read_p999_ns"]


def test_fault_timeline_recorded(sim_config):
    faults = _all_faults()
    result = run_cluster(_config(faults=faults), sim_config)
    assert len(result.fault_timeline) == 2 * len(faults)
    begins = {e["fault"] for e in result.fault_timeline if e["edge"] == "begin"}
    ends = {e["fault"] for e in result.fault_timeline if e["edge"] == "end"}
    assert begins == ends == set(range(len(faults)))
    stalled = result.server("s0")
    assert stalled["faults_begun"] == 1.0


def test_closed_loop_tenants(sim_config):
    result = run_cluster(_config(tenants=_tenants(mode="closed")), sim_config)
    assert result.overall["completed"] == result.overall["submitted"] == 300.0


def test_backend_override_changes_result(sim_config):
    base = run_cluster(_config(), sim_config)
    mixed = run_cluster(
        _config(backend_overrides=(("s1", "cxl_lmb"),)), sim_config
    )
    assert mixed.overall["completed"] == base.overall["completed"]
    assert result_digest(mixed) != result_digest(base)


def test_max_time_truncates_run(sim_config):
    result = run_cluster(_config(max_time_ns=2e6), sim_config)
    assert result.elapsed_ns <= 2e6
    assert result.overall["completed"] <= result.overall["submitted"]


def test_server_names():
    config = _config(servers=3)
    assert config.server_names == ("s0", "s1", "s2")

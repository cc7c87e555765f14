"""Cluster experiment: replica-read policy vs injected fault type.

The single-server serving experiment asks what arbitration buys one
device; this one asks the cluster-scale question from "The Tail at
Scale": when one of N shard servers misbehaves, how much of the tail
does each replica-read policy recover?  The grid is

    {primary, least_outstanding, hedged}
  x {none, server-stall, die-slowdown, link-degrade}

with open-loop zipfian social-graph tenants (each in its own file
namespace via ``SocialGraphConfig.node_file``/``edge_file``) feeding a
consistent-hash-sharded cluster.  The headline metric is **tail
amplification**: ``p99.9(fault) / p99.9(no fault)`` per policy —
primary-only eats the whole fault on every key the sick server owns,
hedging caps it at roughly one hedge delay.

Same scale + seeds => byte-identical results; ``--perturb`` adds a
seeded tie-break perturbation pass per policy, with the full fault
schedule active.

Usage::

    pipette-repro cluster --scale small
    python -m repro.experiments.cluster --smoke --perturb   # CI smoke
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.metrics import ExperimentOutcome
from repro.analysis.report import text_table
from repro.cluster import (
    DIE_SLOWDOWN,
    LINK_DEGRADE,
    SERVER_STALL,
    ClusterConfig,
    ClusterResult,
    FaultSpec,
    run_cluster,
)
from repro.experiments.runner import order_independence
from repro.experiments.scale import ExperimentScale, get_scale
from repro.serve.qos import TenantQoS
from repro.serve.server import TenantSpec
from repro.workloads.socialgraph import SocialGraphConfig, social_graph_trace

TITLE = "Cluster: tail amplification by replica-read policy x fault type"

SYSTEM = "pipette"
SERVERS = 4
REPLICATION = 2
#: Offered rate per open-loop tenant (virtual qps).
TENANT_QPS = 20_000.0
HEDGE_DELAY_NS = 300_000.0

POLICY_ORDER = ("primary", "least_outstanding", "hedged")

#: The injected scenarios; all target ``s0`` (which primary-owns ~1/N
#: of the keyspace) for a fixed window of the estimated run.
FAULT_SCENARIOS = ("none", "server-stall", "die-slowdown", "link-degrade")

#: Fault window as fractions of the estimated horizon.
FAULT_START_FRACTION = 0.15
FAULT_DURATION_FRACTION = 0.5

DIE_SLOWDOWN_FACTOR = 8.0
LINK_DEGRADE_FACTOR = 4.0


def _horizon_ns(ops_per_tenant: int) -> float:
    """Estimated virtual duration of the open-loop arrival stream."""
    return ops_per_tenant / TENANT_QPS * 1e9


def fault_schedule(scenario: str, horizon_ns: float) -> tuple[FaultSpec, ...]:
    """The deterministic schedule of one named scenario."""
    if scenario == "none":
        return ()
    start_ns = FAULT_START_FRACTION * horizon_ns
    duration_ns = FAULT_DURATION_FRACTION * horizon_ns
    if scenario == "server-stall":
        return (FaultSpec(SERVER_STALL, "s0", start_ns, duration_ns),)
    if scenario == "die-slowdown":
        # Every channel of s0, so the whole sick server serves slow NAND
        # (a single-channel fault vanishes into the channel hash).
        return tuple(
            FaultSpec(
                DIE_SLOWDOWN,
                "s0",
                start_ns,
                duration_ns,
                channel=channel,
                die_slowdown_factor=DIE_SLOWDOWN_FACTOR,
            )
            for channel in range(8)
        )
    if scenario == "link-degrade":
        return (
            FaultSpec(
                LINK_DEGRADE,
                "s0",
                start_ns,
                duration_ns,
                link_degrade_factor=LINK_DEGRADE_FACTOR,
            ),
        )
    raise ValueError(f"unknown fault scenario {scenario!r}; choose from {FAULT_SCENARIOS}")


def _tenants(scale: ExperimentScale, ops: int) -> tuple[TenantSpec, ...]:
    """Two open-loop zipfian tenants, each in its own file namespace.

    Distinct ``node_file``/``edge_file`` per tenant (the configurable
    paths) keep the per-node VFS namespaces disjoint — each tenant's
    graph has its own deterministic layout and sizes.
    """
    specs: list[TenantSpec] = []
    for index, name in enumerate(("alpha", "beta")):
        graph = SocialGraphConfig(
            nodes=scale.social_nodes,
            operations=ops,
            seed=31 + index,
            node_file=f"/data/{name}/nodes.bin",
            edge_file=f"/data/{name}/edges.bin",
        )
        specs.append(
            TenantSpec(
                name,
                social_graph_trace(graph),
                qos=TenantQoS(weight=1),
                mode="open",
                rate_qps=TENANT_QPS,
                max_ops=ops,
            )
        )
    return tuple(specs)


def cluster_config(
    tenants: tuple[TenantSpec, ...],
    policy: str,
    faults: tuple[FaultSpec, ...],
) -> ClusterConfig:
    return ClusterConfig(
        tenants=tenants,
        servers=SERVERS,
        replication=REPLICATION,
        policy=policy,
        hedge_delay_ns=HEDGE_DELAY_NS,
        system=SYSTEM,
        arbitration="wrr",
        max_inflight_per_server=8,
        seed=42,
        faults=faults,
    )


def _grid(
    tenants: tuple[TenantSpec, ...], sim_config, horizon_ns: float
) -> dict[str, dict[str, ClusterResult]]:
    results: dict[str, dict[str, ClusterResult]] = {}
    for policy in POLICY_ORDER:
        results[policy] = {}
        for scenario in FAULT_SCENARIOS:
            config = cluster_config(
                tenants, policy, fault_schedule(scenario, horizon_ns)
            )
            results[policy][scenario] = run_cluster(config, sim_config)
    return results


def _grid_rows(
    results: dict[str, dict[str, ClusterResult]],
) -> tuple[list[list[str]], dict]:
    rows: list[list[str]] = []
    raw: dict[str, dict] = {}
    for policy in POLICY_ORDER:
        baseline = results[policy]["none"].overall["read_p999_ns"]
        raw[policy] = {}
        for scenario in FAULT_SCENARIOS:
            result = results[policy][scenario]
            overall = result.overall
            amplification = (
                overall["read_p999_ns"] / baseline if baseline > 0 else 0.0
            )
            raw[policy][scenario] = result.to_dict()
            rows.append(
                [
                    policy,
                    scenario,
                    f"{overall['completed']:.0f}",
                    f"{overall['read_p50_ns'] / 1000:.1f}",
                    f"{overall['read_p99_ns'] / 1000:.1f}",
                    f"{overall['read_p999_ns'] / 1000:.1f}",
                    f"{amplification:.2f}x",
                    f"{overall['p999_ns'] / 1000:.1f}",
                    f"{overall['hedges_issued']:.0f}",
                    f"{overall['hedges_won']:.0f}",
                    f"{overall['hedges_wasted']:.0f}",
                ]
            )
    return rows, raw


def _amplification(results: dict[str, dict[str, ClusterResult]]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for policy in POLICY_ORDER:
        baseline = results[policy]["none"].overall["read_p999_ns"]
        out[policy] = {
            scenario: (
                results[policy][scenario].overall["read_p999_ns"] / baseline
                if baseline > 0
                else 0.0
            )
            for scenario in FAULT_SCENARIOS
            if scenario != "none"
        }
    return out


#: Tie-break shuffle seeds for the perturbation pass (``--perturb``).
PERTURBATION_SEEDS = tuple(range(1, 5))


def run(scale: ExperimentScale | None = None, *, perturb: bool = False) -> ExperimentOutcome:
    scale = scale or get_scale()
    sim_config = scale.sim_config()
    ops = scale.sweep_requests
    horizon_ns = _horizon_ns(ops)
    tenants = _tenants(scale, ops)
    results = _grid(tenants, sim_config, horizon_ns)
    rows, raw = _grid_rows(results)
    report = text_table(
        [
            "policy",
            "fault",
            "done",
            "rd p50 us",
            "rd p99 us",
            "rd p99.9 us",
            "amp",
            "all p99.9",
            "hedged",
            "won",
            "wasted",
        ],
        rows,
        title=TITLE
        + f" [scale={scale.name}, {SERVERS} servers, RF={REPLICATION}]",
    )
    amplification = _amplification(results)
    summary = ["", "read p99.9 amplification vs fault-free baseline (lower is better;"]
    summary.append("writes are write-all so their tail is policy-independent):")
    for scenario in FAULT_SCENARIOS:
        if scenario == "none":
            continue
        parts = "  ".join(
            f"{policy}={amplification[policy][scenario]:.2f}x"
            for policy in POLICY_ORDER
        )
        summary.append(f"  {scenario:14s}{parts}")
    report += "\n" + "\n".join(summary)
    extra: dict[str, object] = {
        "grid": raw,
        "amplification": amplification,
        "servers": SERVERS,
        "replication": REPLICATION,
        "tenant_qps": TENANT_QPS,
        "hedge_delay_ns": HEDGE_DELAY_NS,
        "horizon_ns": horizon_ns,
    }
    if perturb:
        # Tie-break-perturb every policy with faults active; the stall
        # scenario exercises the most machinery: gated pumps, ring
        # backlog, hedges racing recovery.
        faults = fault_schedule("server-stall", horizon_ns)
        table, extra["perturbation"] = order_independence(
            "policy",
            {policy: cluster_config(tenants, policy, faults) for policy in POLICY_ORDER},
            lambda cluster, seed: run_cluster(cluster, sim_config, tiebreak_seed=seed),
            PERTURBATION_SEEDS,
        )
        report += "\n\n" + table
    return ExperimentOutcome(
        experiment="cluster",
        title=TITLE,
        comparisons=[],
        report=report,
        extra=extra,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cluster",
        description="Sweep replica-read policy x fault type on the sharded "
        "cluster and report p99.9 tail amplification.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: tiny scale",
    )
    parser.add_argument(
        "--scale",
        default=None,
        help="scaling preset (ignored with --smoke; default: $REPRO_SCALE)",
    )
    parser.add_argument(
        "--perturb",
        action="store_true",
        help="add the tie-break perturbation pass",
    )
    args = parser.parse_args(argv)
    scale = get_scale("tiny") if args.smoke else get_scale(args.scale)
    print(run(scale, perturb=args.perturb).report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

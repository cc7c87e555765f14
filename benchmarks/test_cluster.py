"""Bench: sharded cluster — policy x fault grid + per-policy throughput.

Two artifacts per session:

- ``results/cluster.txt`` — the rendered policy x fault grid at the
  bench scale, including the headline read-p99.9 amplification numbers
  (hedged must beat primary-only under a server stall, asserted here);
- ``results/BENCH_cluster.json`` — per-policy virtual requests/sec and
  event counts (written by the conftest terminal-summary hook).  The
  simulator's wall-clock speed is measured by ``simbench``
  (``cluster-hedged-stall``'s ``events_per_s``), not here.
"""

from repro.cluster import run_cluster
from repro.experiments import cluster as cluster_experiment

from benchmarks.conftest import CLUSTER_BENCH, save_report


def test_cluster_policy_fault_grid(benchmark, scale, results_dir):
    outcome = benchmark.pedantic(
        cluster_experiment.run, args=(scale,), rounds=1, iterations=1
    )
    save_report(results_dir, "cluster", outcome.report)
    amplification = outcome.extra["amplification"]
    hedged = amplification["hedged"]["server-stall"]
    primary = amplification["primary"]["server-stall"]
    # The acceptance property: hedging caps the read tail a stalled
    # shard server causes; primary-only eats the whole stall.
    assert hedged < primary
    assert amplification["hedged"]["die-slowdown"] < amplification["primary"]["die-slowdown"]
    benchmark.extra_info["read_p999_amplification"] = amplification


def test_cluster_throughput_per_policy(benchmark, scale):
    ops = scale.sweep_requests
    tenants = cluster_experiment._tenants(scale, ops)
    horizon_ns = cluster_experiment._horizon_ns(ops)
    faults = cluster_experiment.fault_schedule("server-stall", horizon_ns)
    sim_config = scale.sim_config()

    def grid():
        stats = {}
        for policy in cluster_experiment.POLICY_ORDER:
            config = cluster_experiment.cluster_config(tenants, policy, faults)
            result = run_cluster(config, sim_config)
            stats[policy] = {
                "virtual_qps": result.total_qps,
                "events_processed": float(result.events_processed),
                "completed": float(result.total_completed),
            }
        return stats

    stats = benchmark.pedantic(grid, rounds=1, iterations=1)
    for policy, entry in stats.items():
        assert entry["completed"] == 2.0 * ops
        CLUSTER_BENCH[policy] = entry
    benchmark.extra_info["cluster"] = stats

"""The four benchmark workloads: seeded inputs, the program, checked results.

Each workload splits a round into three steps, so the harness can time
them apart:

``inputs(seed, smoke)``
    generates every input from the seed and materializes it into lists
    (the set-up part ``setup.workload_s``);
``build(inputs, sim_config)``
    constructs the program under test (``setup.build_s``): a
    :class:`~repro.serve.server.StorageServer`, a
    :class:`~repro.cluster.cluster.Cluster` or a
    :class:`~repro.sim.queueing.PipelineSimulator` run;
``outcome(inputs, program, result)``
    reads the results back and checks them; :func:`virtual_metrics`
    derives the simulated results from that outcome.

The program receives only the materialized lists: a serving tenant's
op stream is a :class:`~repro.workloads.trace.Trace` whose
``build_ops`` returns the list built in set-up.  The modelled caches
start empty, so the virtual metrics include warm-up.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster import SERVER_STALL, ClusterConfig, FaultSpec
from repro.cluster.cluster import Cluster
from repro.config import MIB, SimConfig
from repro.serve.engine import EventLoop, FifoResource
from repro.serve.qos import TenantQoS
from repro.serve.server import ServeConfig, StorageServer, TenantSpec
from repro.sim.queueing import PipelineSimulator, RequestDemand
from repro.sim.stats import LatencyHistogram
from repro.system import StorageSystem
from repro.workloads.socialgraph import SocialGraphConfig, social_graph_trace
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace
from repro.workloads.trace import ReadOp, Trace
from repro.workloads.ycsb import YcsbConfig, ycsb_trace

from simbench.metrics import ratio
from simbench.sizes import CLUSTER_OPS, CLUSTER_TENANTS, QUEUE_DEMANDS, SERVE_OPS, SERVE_TENANTS

#: A reported percentile needs this many samples beyond it (full size).
MIN_BEYOND_P999 = 10


def derive_seed(seed: int, *labels: str) -> int:
    """Independent 63-bit seed for one input stream of a run."""
    token = ":".join([str(seed), *labels]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big") >> 1


def materialize(trace: Trace, limit: int) -> Trace:
    """The trace with its first ``limit`` ops generated into a list."""
    ops = list(itertools.islice(trace.ops(), limit))
    return Trace(trace.name, trace.files, lambda: ops, dict(trace.metadata))


@dataclass
class Census:
    """Every event loop and stage FIFO the program built (filled by the hooks)."""

    loops: list[EventLoop] = field(default_factory=list)
    fifos: list[FifoResource] = field(default_factory=list)


@dataclass
class Outcome:
    """What one round produced, read back after the run."""

    #: Operations materialized in set-up.
    ops: int
    submitted: int
    completed: int
    shed: int
    sim_qps: float
    p50_ns: float
    p999_ns: float
    #: Samples behind the reported percentiles (the smallest population).
    latency_samples: int
    systems: list[StorageSystem]
    hedges: dict[str, int] = field(default_factory=dict)
    #: Failed correctness checks (empty when the outputs are correct).
    checks: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.submitted - self.completed - self.shed


@dataclass(frozen=True)
class Inputs:
    """Everything the program will receive, generated in set-up."""

    data: object
    #: Operations (requests, demands) materialized.
    ops: int


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, bool], Inputs]
    #: Returns the program; the timed region is ``program.run()``.
    build: Callable[[object, SimConfig], object]
    outcome: Callable[[object, object, object], Outcome]


# --- serving: one Pipette server, two closed-loop tenants ------------------
SERVE_CALLERS = 16
SERVE_SLOTS = 8


def _serve_inputs(make_trace: Callable[[int, int], Trace]):
    def inputs(seed: int, smoke: bool) -> Inputs:
        ops = SERVE_OPS[smoke]
        tenants = [
            (name, weight, materialize(make_trace(ops, derive_seed(seed, name)), ops))
            for name, weight in SERVE_TENANTS
        ]
        return Inputs(tenants, sum(trace.count_ops() for _, _, trace in tenants))

    return inputs


def _small_reads_trace(ops: int, seed: int) -> Trace:
    return synthetic_trace(
        SyntheticConfig(
            workload="E",
            distribution="zipfian",
            requests=ops,
            file_size=32 * MIB,
            seed=seed,
        )
    )


def _kv_update_trace(ops: int, seed: int) -> Trace:
    return ycsb_trace(YcsbConfig(workload="A", records=65_536, operations=ops, seed=seed))


def _serve_build(tenants: list[tuple[str, int, Trace]], sim_config: SimConfig) -> StorageServer:
    specs = tuple(
        TenantSpec(
            name,
            trace,
            qos=TenantQoS(weight=weight),
            concurrency=SERVE_CALLERS,
            max_ops=trace.count_ops(),
        )
        for name, weight, trace in tenants
    )
    config = ServeConfig(
        tenants=specs, system="pipette", arbitration="wrr", max_inflight=SERVE_SLOTS
    )
    return StorageServer(config, sim_config)


def _serve_outcome(tenants, server: StorageServer, result) -> Outcome:
    checks: list[str] = []
    totals = {"submitted": 0, "completed": 0, "shed": 0}
    for name, _weight, trace in tenants:
        stats = result.tenant(name)
        ops = list(trace.ops())
        for key in totals:
            totals[key] += int(stats[key])
        if stats["submitted"] != len(ops):
            checks.append(f"{name}: submitted {stats['submitted']:.0f} of {len(ops)} ops")
        if stats["reads"] + stats["writes"] != stats["completed"]:
            checks.append(f"{name}: reads + writes != completed")
        if stats["completed"] == len(ops):
            demanded = sum(op.size for op in ops if isinstance(op, ReadOp))
            if stats["demanded_bytes"] != demanded:
                checks.append(f"{name}: demanded bytes {stats['demanded_bytes']:.0f} != {demanded}")
        if not 0 < stats["p50_ns"] <= stats["p999_ns"]:
            checks.append(f"{name}: latency percentiles out of order")
    worst = [result.tenant(name) for name, _, _ in tenants]
    return Outcome(
        ops=sum(trace.count_ops() for _, _, trace in tenants),
        submitted=totals["submitted"],
        completed=totals["completed"],
        shed=totals["shed"],
        sim_qps=result.total_qps,
        p50_ns=max(stats["p50_ns"] for stats in worst),
        p999_ns=max(stats["p999_ns"] for stats in worst),
        latency_samples=int(min(stats["completed"] for stats in worst)),
        systems=[server.system],
        checks=checks,
    )


# --- cluster: hedged reads under a server stall ----------------------------
CLUSTER_QPS = 20_000.0
CLUSTER_NODES = {False: 65_536, True: 16_384}
STALL_START, STALL_LENGTH = 0.15, 0.5


def _cluster_inputs(seed: int, smoke: bool) -> Inputs:
    ops = CLUSTER_OPS[smoke]
    traces = {}
    for name in CLUSTER_TENANTS:
        graph = SocialGraphConfig(
            nodes=CLUSTER_NODES[smoke],
            operations=ops,
            seed=derive_seed(seed, name),
            node_file=f"/data/{name}/nodes.bin",
            edge_file=f"/data/{name}/edges.bin",
        )
        traces[name] = materialize(social_graph_trace(graph), ops)
    data = {"traces": traces, "arrival_seed": derive_seed(seed, "arrivals")}
    return Inputs(data, sum(trace.count_ops() for trace in traces.values()))


def _cluster_build(inputs: dict, sim_config: SimConfig) -> Cluster:
    traces: dict[str, Trace] = inputs["traces"]
    tenants = tuple(
        TenantSpec(name, trace, mode="open", rate_qps=CLUSTER_QPS, max_ops=trace.count_ops())
        for name, trace in traces.items()
    )
    horizon_ns = max(trace.count_ops() for trace in traces.values()) / CLUSTER_QPS * 1e9
    stall = FaultSpec(SERVER_STALL, "s0", STALL_START * horizon_ns, STALL_LENGTH * horizon_ns)
    config = ClusterConfig(
        tenants=tenants,
        servers=4,
        replication=2,
        policy="hedged",
        hedge_delay_ns=300_000.0,
        system="pipette",
        arbitration="wrr",
        max_inflight_per_server=8,
        seed=inputs["arrival_seed"],
        faults=(stall,),
    )
    return Cluster(config, sim_config)


def _cluster_outcome(inputs: dict, cluster: Cluster, result) -> Outcome:
    overall = result.overall
    ops = sum(trace.count_ops() for trace in inputs["traces"].values())
    checks: list[str] = []
    if overall["submitted"] != ops:
        checks.append(f"submitted {overall['submitted']:.0f} of {ops} ops")
    if overall["reads"] + overall["writes"] != overall["submitted"]:
        checks.append("reads + writes != submitted")
    if overall["hedges_won"] > overall["hedges_issued"]:
        checks.append("more hedges won than issued")
    if not 0 < overall["read_p50_ns"] <= overall["read_p999_ns"]:
        checks.append("read latency percentiles out of order")
    return Outcome(
        ops=ops,
        submitted=int(overall["submitted"]),
        completed=int(overall["completed"]),
        shed=0,
        sim_qps=overall["achieved_qps"],
        # Reads only: writes are write-all, so their tail is policy-blind.
        p50_ns=overall["read_p50_ns"],
        p999_ns=overall["read_p999_ns"],
        latency_samples=int(overall["reads"]),
        systems=[node.system for _, node in sorted(cluster.nodes.items())],
        hedges={
            key: int(overall[f"hedges_{key}"])
            for key in ("issued", "won", "wasted", "cancelled")
        },
        checks=checks,
    )


# --- queueing replay: event loop + FIFOs only -------------------------------
QUEUE_DEPTH = 32
QUEUE_CHANNELS = 8
QUEUE_HOSTS = 4
HOST_MEAN_NS, NAND_MEAN_NS, PCIE_MEAN_NS = 2_000.0, 6_000.0, 500.0


def _queue_inputs(seed: int, smoke: bool) -> Inputs:
    rng = random.Random(derive_seed(seed, "demands"))
    demands = [
        RequestDemand(
            host_ns=rng.expovariate(1.0 / HOST_MEAN_NS),
            nand_ns=rng.expovariate(1.0 / NAND_MEAN_NS),
            channel=rng.randrange(QUEUE_CHANNELS),
            pcie_ns=rng.expovariate(1.0 / PCIE_MEAN_NS),
        )
        for _ in range(QUEUE_DEMANDS[smoke])
    ]
    return Inputs(demands, len(demands))


@dataclass
class Replay:
    """The queueing program: one closed-loop pipeline run over the demands."""

    simulator: PipelineSimulator
    demands: list[RequestDemand]

    def run(self):
        return self.simulator.run(self.demands, QUEUE_DEPTH, keep_latencies=True)


def _queue_build(demands: list[RequestDemand], _sim_config: SimConfig) -> Replay:
    return Replay(PipelineSimulator(channels=QUEUE_CHANNELS, host_servers=QUEUE_HOSTS), demands)


def _queue_outcome(demands: list[RequestDemand], program: Replay, result) -> Outcome:
    simulator = program.simulator
    histogram = LatencyHistogram()
    checks: list[str] = []
    completed = too_fast = 0
    for demand, latency_ns in zip(demands, result.latencies_ns):
        if latency_ns > 0:
            completed += 1
            histogram.record(latency_ns)
        # No request may finish faster than its own service demand.
        service_ns = demand.host_ns + demand.nand_ns + demand.pcie_ns
        if latency_ns < service_ns * (1 - 1e-9):
            too_fast += 1
    if too_fast:
        checks.append(f"{too_fast} requests finished faster than their service demand")
    if result.total_ns < simulator.bottleneck_prediction_ns(demands) * (1 - 1e-9):
        checks.append("finished before the busiest stage could")
    return Outcome(
        ops=len(demands),
        submitted=len(result.latencies_ns),
        completed=completed,
        shed=0,
        sim_qps=result.throughput_ops,
        p50_ns=histogram.p50_ns,
        p999_ns=histogram.p999_ns,
        latency_samples=histogram.count,
        systems=[],
        checks=checks,
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "serve-small-reads", _serve_inputs(_small_reads_trace), _serve_build, _serve_outcome
        ),
        Workload("serve-kv-update", _serve_inputs(_kv_update_trace), _serve_build, _serve_outcome),
        Workload("cluster-hedged-stall", _cluster_inputs, _cluster_build, _cluster_outcome),
        Workload("queueing-replay", _queue_inputs, _queue_build, _queue_outcome),
    )
}


def _stage_utilization(census: Census, elapsed_ns: float) -> dict[str, float | None]:
    """Busy share of each stage kind over the run's virtual time."""
    busy: dict[str, float] = {}
    capacity: dict[str, float] = {}
    channel_max = 0.0
    for fifo in census.fifos:
        kind = stage_kind(fifo.name)
        busy[kind] = busy.get(kind, 0.0) + fifo.busy_ns
        capacity[kind] = capacity.get(kind, 0.0) + fifo.servers * elapsed_ns
        if kind == "channel" and elapsed_ns > 0:
            channel_max = max(channel_max, fifo.busy_ns / (fifo.servers * elapsed_ns))
    return {
        "stage.host.util": ratio(busy.get("host", 0.0), capacity.get("host", 0.0)),
        "stage.channel.util_max": channel_max if "channel" in busy else None,
        "stage.pcie.util": ratio(busy.get("pcie", 0.0), capacity.get("pcie", 0.0)),
    }


def stage_kind(name: str) -> str:
    """``host``/``channel``/``pcie`` from a FIFO name like ``s0:channel:3``."""
    for part in name.split(":"):
        if part in ("host", "channel", "pcie"):
            return part
    return name


def virtual_metrics(outcome: Outcome, census: Census) -> dict[str, float | None]:
    """Every simulated result of the round; must repeat bit for bit."""
    systems = outcome.systems
    fgrc_hits = fgrc_misses = 0.0
    page_weighted = 0.0
    reads = 0
    to_host = demanded = 0
    for system in systems:
        stats = system.cache_stats()
        fgrc_hits += stats.get("fgrc_hits", 0.0)
        fgrc_misses += stats.get("fgrc_misses", 0.0)
        page_weighted += stats.get("page_cache_hit_ratio", 0.0) * system.reads
        reads += system.reads
        to_host += system.device.traffic.device_to_host_bytes
        demanded += system.device.traffic.demanded_bytes
    elapsed_ns = max((loop.now_ns for loop in census.loops), default=0.0)
    values: dict[str, float | None] = {
        "sim_qps": outcome.sim_qps,
        "sim_p50_us": outcome.p50_ns / 1000.0,
        "sim_p999_us": outcome.p999_ns / 1000.0,
        "latency_samples": float(outcome.latency_samples),
        "beyond_p999": float(
            outcome.latency_samples - math.ceil(0.999 * outcome.latency_samples)
        ),
        "elapsed_ns": elapsed_ns,
        "engine.events": float(sum(loop.processed for loop in census.loops)),
        "storage.retained_demands": float(sum(len(system.demands) for system in systems)),
        "storage.fgrc_hit_ratio": ratio(fgrc_hits, fgrc_hits + fgrc_misses),
        "storage.page_cache_hit_ratio": ratio(page_weighted, reads),
        "storage.read_amplification": ratio(to_host, demanded),
        "router.hedges_issued": float(outcome.hedges.get("issued", 0)),
        "router.hedges_won": float(outcome.hedges.get("won", 0)),
        "router.hedges_wasted": float(outcome.hedges.get("wasted", 0)),
        "router.hedges_cancelled": float(outcome.hedges.get("cancelled", 0)),
    }
    values.update(_stage_utilization(census, elapsed_ns))
    return values


__all__ = [
    "WORKLOADS",
    "Census",
    "Inputs",
    "Outcome",
    "Workload",
    "derive_seed",
    "materialize",
    "stage_kind",
    "virtual_metrics",
]

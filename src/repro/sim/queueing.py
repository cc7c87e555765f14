"""Closed-loop pipeline (queueing) simulation of storage requests.

The harness derives throughput from a bottleneck (busy-time) model; this
module provides the event-level ground truth: each request flows through
three FCFS stages — host CPU (``host_servers`` cores), NAND (one server
per flash channel), PCIe (one link) — under a closed-loop queue-depth
limit.  At depth 1 it reproduces serial latency; as depth grows, total
time converges to the busiest stage's total work, validating the
bottleneck model (see ``experiments/qd_sweep``).

The timeline runs on the shared discrete-event engine
(:class:`repro.serve.engine.EventLoop` + :class:`FifoResource`) — the
same loop the multi-tenant serving layer schedules on — through
:class:`StagePipeline`, the stage chain the server and the cluster
nodes use too, so there is exactly one event-ordering and one stage
implementation to trust: requests are admitted in order as completions
free closed-loop slots, and each stage serves in arrival order with
deterministic tie-breaking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

from repro.serve.engine import EventLoop, FifoResource
from repro.sim.trace import RequestDemand


@dataclass
class QueueingResult:
    """Outcome of one closed-loop run."""

    requests: int
    queue_depth: int
    total_ns: float
    mean_latency_ns: float
    host_busy_ns: float
    nand_busy_ns: float
    pcie_busy_ns: float
    latencies_ns: list[float] = field(default_factory=list, repr=False)

    @property
    def throughput_ops(self) -> float:
        if self.total_ns <= 0:
            return 0.0
        return self.requests / (self.total_ns / 1e9)

    def utilization(self, stage_capacity_ns: float, busy_ns: float) -> float:
        if stage_capacity_ns <= 0:
            return 0.0
        return busy_ns / stage_capacity_ns


class StagePipeline:
    """Host CPU -> NAND channel -> PCIe: the three FCFS stages of a request.

    The one implementation of the stage chain: the closed-loop
    :class:`PipelineSimulator`, the serving layer's server and every
    cluster node replay each request's :class:`RequestDemand` through
    it.  FIFO names carry an optional ``prefix`` (a cluster node's
    ``"s0:"``) so per-node stages stay distinguishable.

    Each submission draws the next *dispatch key* and passes it to all
    three stages: same-timestamp contenders at any stage are admitted in
    submission order, never in event tie-break order.  Callers submit in
    an order no tie-break can change — the servers from settle-phase
    arbitration, the closed-loop replay in request order — so the keys
    are tie-break independent too.
    """

    def __init__(
        self, loop: EventLoop, *, host_servers: int, channels: int, prefix: str = ""
    ) -> None:
        self.host = FifoResource(loop, host_servers, name=f"{prefix}host")
        self.channels = [
            FifoResource(loop, name=f"{prefix}channel:{index}") for index in range(channels)
        ]
        self.pcie = FifoResource(loop, name=f"{prefix}pcie")
        self._width = channels
        self._keys = itertools.count()

    def submit(self, demand: RequestDemand, done: Callable[[float], None]) -> None:
        """Replay ``demand`` stage by stage; ``done(end_ns)`` after PCIe."""
        channel = self.channels[demand.channel % self._width]
        pcie = self.pcie
        key = next(self._keys)

        def on_nand(_end_ns: float) -> None:
            pcie.acquire(demand.pcie_ns, done, key=key)

        def on_host(_end_ns: float) -> None:
            channel.acquire(demand.nand_ns, on_nand, key=key)

        self.host.acquire(demand.host_ns, on_host, key=key)


class PipelineSimulator:
    """FCFS three-stage pipeline with a closed-loop admission window."""

    def __init__(self, channels: int = 8, host_servers: int = 4) -> None:
        if channels <= 0 or host_servers <= 0:
            raise ValueError("channels and host_servers must be positive")
        self.channels = channels
        self.host_servers = host_servers

    def run(
        self,
        demands: list[RequestDemand],
        queue_depth: int,
        *,
        keep_latencies: bool = False,
    ) -> QueueingResult:
        """Simulate ``demands`` in order under the given queue depth."""
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        loop = EventLoop()
        stages = StagePipeline(loop, host_servers=self.host_servers, channels=self.channels)

        count = len(demands)
        next_index = 0
        total_latency = 0.0
        finish_ns = 0.0
        #: Indexed by request so callers can zip against ``demands``
        #: even though completions happen out of admission order.
        latencies: list[float] = [0.0] * count if keep_latencies else []

        def admit() -> None:
            nonlocal next_index
            index = next_index
            if index >= count:
                return
            next_index = index + 1
            admit_ns = loop.now_ns

            def done(end_ns: float) -> None:
                nonlocal total_latency, finish_ns
                latency = end_ns - admit_ns
                total_latency += latency
                if keep_latencies:
                    latencies[index] = latency
                if end_ns > finish_ns:
                    finish_ns = end_ns
                admit()  # completion frees one closed-loop slot

            # Requests are submitted in index order, so the pipeline's
            # dispatch key of each request is its admission index.
            stages.submit(demands[index], done)

        for _ in range(min(queue_depth, count)):
            admit()
        loop.run()

        # Busy totals are input sums (service is work-conserving), so
        # accumulate them in request order — bit-identical to what the
        # demands themselves sum to, independent of service order.
        return QueueingResult(
            requests=count,
            queue_depth=queue_depth,
            total_ns=finish_ns,
            mean_latency_ns=total_latency / count if count else 0.0,
            host_busy_ns=sum(map(attrgetter("host_ns"), demands)),
            nand_busy_ns=sum(map(attrgetter("nand_ns"), demands)),
            pcie_busy_ns=sum(map(attrgetter("pcie_ns"), demands)),
            latencies_ns=latencies,
        )

    def bottleneck_prediction_ns(self, demands: list[RequestDemand]) -> float:
        """The busy-time (roofline) completion-time prediction."""
        host_busy = sum(demand.host_ns for demand in demands) / self.host_servers
        per_channel = [0.0] * self.channels
        for demand in demands:
            per_channel[demand.channel % self.channels] += demand.nand_ns
        pcie_busy = sum(demand.pcie_ns for demand in demands)
        return max(host_busy, max(per_channel), pcie_busy)


__all__ = ["PipelineSimulator", "QueueingResult", "RequestDemand", "StagePipeline"]

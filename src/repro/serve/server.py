"""The multi-tenant serving façade: clients -> QoS -> NVMe MQ -> system.

:class:`StorageServer` runs many concurrent tenants against one
registered :class:`~repro.system.StorageSystem` (Pipette or any
baseline) on the deterministic event loop:

1. a tenant's client (:mod:`repro.serve.clients`) submits an op;
2. admission control applies the tenant's token bucket and queue-full
   policy (:mod:`repro.serve.qos`) before the op enters the tenant's
   NVMe submission ring (:mod:`repro.serve.nvme_mq`);
3. whenever a device slot is free, the arbiter (RR or NVMe-style WRR)
   picks the next ring to fetch from;
4. the fetched op executes against the storage system
   (``StorageSystem.apply``), which records the request's
   :class:`~repro.sim.trace.StageTrace` exactly as in single-stream
   mode and returns its queueing demand — the runtime sanitizer's
   ledger==trace-sums invariant is checked at every root-trace close,
   now with many requests in flight;
5. that demand is submitted to the server's
   :class:`~repro.sim.queueing.StagePipeline`
   (host -> NAND channel -> PCIe on the loop), so the op's *completion
   time* reflects contention with every other in-flight request;
6. completion feeds the tenant's tail-latency accounting and, for
   closed-loop clients, releases the next submission.

Steps 2-5 are one :class:`StorageNode`, the same class every cluster
server runs (:mod:`repro.cluster`); :class:`StorageServer` adds the
clients and per-tenant metrics, and admits each submission at once.

Same ``ServeConfig`` + seed => byte-identical :class:`ServeResult`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.config import SimConfig
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.serve.clients import CLOSED, OPEN, build_client
from repro.serve.engine import EventLoop
from repro.serve.metrics import RequestMetrics, ServeResult, TenantMetrics
from repro.serve.nvme_mq import ARBITERS, MultiQueueNvme
from repro.serve.qos import SHED, AdmissionRejected, TenantQoS, TokenBucket
from repro.sim.queueing import RequestDemand, StagePipeline
from repro.system import StorageSystem, build_system
from repro.workloads.trace import Op, ReadOp, Trace


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a workload, its QoS contract, and its client shape."""

    name: str
    trace: Trace
    qos: TenantQoS = field(default_factory=TenantQoS)
    #: ``"closed"`` (concurrency + think time) or ``"open"`` (Poisson).
    mode: str = CLOSED
    #: Closed-loop: number of outstanding synchronous callers.
    concurrency: int = 8
    #: Closed-loop: virtual think time between completion and next op.
    think_ns: float = 0.0
    #: Open-loop: offered arrival rate in ops per simulated second.
    rate_qps: float = 0.0
    #: Cap on ops taken from the trace (``None`` = run it dry).
    max_ops: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.mode not in (CLOSED, OPEN):
            raise ValueError(f"unknown client mode {self.mode!r}")
        if self.mode == OPEN and self.rate_qps <= 0:
            raise ValueError("open-loop tenants need a positive rate_qps")


@dataclass(frozen=True)
class ServeConfig:
    """Everything that determines a serving run (with the system config)."""

    tenants: tuple[TenantSpec, ...]
    system: str = "pipette"
    #: Host/device fabric the storage system's device runs on (see
    #: :mod:`repro.ssd.fabric`).  ``None`` inherits whatever
    #: the supplied ``SimConfig`` selects (``pcie_gen3`` by default);
    #: a name overrides it, so the serving layer runs on any fabric.
    backend: str | None = None
    #: ``"rr"`` or ``"wrr"`` NVMe submission-queue arbitration.
    arbitration: str = "wrr"
    #: Device slots: maximum requests concurrently in the stage pipeline.
    max_inflight: int = 8
    #: Seed for open-loop arrival processes (per-tenant streams derive
    #: from it deterministically).
    seed: int = 42
    fine_grained: bool = True
    #: Optional horizon: stop the loop at this virtual time (rate
    #: measurements over a clean window); ``None`` runs all ops dry.
    max_time_ns: float | None = None

    def __post_init__(self) -> None:
        validate_tenants(self.tenants, self.arbitration, self.max_inflight, "max_inflight")


def validate_tenants(
    tenants: Sequence[TenantSpec], arbitration: str, inflight: int, inflight_name: str
) -> None:
    """The checks every tenant set gets, whichever front end runs it."""
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [spec.name for spec in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in {names}")
    if arbitration not in ARBITERS:
        raise ValueError(
            f"unknown arbitration {arbitration!r}; choose from {sorted(ARBITERS)}"
        )
    if inflight <= 0:
        raise ValueError(f"{inflight_name} must be positive")


class Tenant:
    """One tenant as a front end sees it: spec, slot, client, metrics."""

    __slots__ = ("spec", "index", "client", "metrics")

    def __init__(
        self,
        spec: TenantSpec,
        index: int,
        seed: int,
        metrics: RequestMetrics,
    ) -> None:
        self.spec = spec
        self.index = index
        self.client = build_client(spec, index, seed)
        self.metrics = metrics


class _Lane:
    """One tenant inside one node: ring, backlog, open files, QoS state."""

    __slots__ = ("spec", "queue", "backlog", "fds", "bucket", "retry", "metrics")

    def __init__(self, spec: TenantSpec, mq: MultiQueueNvme) -> None:
        self.spec = spec
        self.queue = mq.add_queue(spec.name, depth=spec.qos.queue_depth, weight=spec.qos.weight)
        #: Entries admitted to the node but not yet in the ring.
        self.backlog: deque = deque()
        self.fds: dict[str, int] = {}
        self.bucket: TokenBucket | None = (
            TokenBucket(spec.qos.rate_limit_qps, spec.qos.burst)
            if spec.qos.rate_limit_qps is not None
            else None
        )
        #: Pending timer for a token-bucket retry (avoid duplicates).
        self.retry = None
        #: This node's admission counts for the tenant (``admitted``,
        #: ``shed``, ``rate_delayed``); a single server reports them.
        self.metrics = TenantMetrics(spec.name)


class StorageNode:
    """One storage server between admission and completion.

    It owns one registered :class:`~repro.system.StorageSystem` (which
    hands back each executed op's demand and keeps none), a lane per
    tenant (NVMe submission ring behind the RR/WRR arbiter, backlog,
    open files, token bucket), ``max_inflight`` device slots, and a
    :class:`~repro.sim.queueing.StagePipeline` whose stage FIFOs are
    named with ``prefix``.

    Its owner hands it *entries* with :meth:`admit`: any object with
    an ``op`` and a ``cancelled`` flag.  Admission moves backlog into
    the ring as the tenant's QoS permits (token bucket; a full ring
    blocks, or sheds through ``on_shed``).  The settle-deferred pump
    fetches from the rings while slots are free, drops cancelled
    entries, calls ``on_dispatch(entry)``, executes the op, replays its
    demand on the stages (scaled by the fault multipliers) and calls
    ``on_complete(entry, end_ns)`` when it leaves them.
    :meth:`set_faults` gates the pump and sets the multipliers.
    """

    def __init__(
        self,
        loop: EventLoop,
        tenants: Sequence[TenantSpec],
        *,
        system: str,
        sim_config: SimConfig | None,
        arbitration: str,
        max_inflight: int,
        fine_grained: bool,
        on_dispatch: Callable[[Any], None],
        on_complete: Callable[[Any, float], None],
        on_shed: Callable[[Any], None] | None = None,
        prefix: str = "",
    ) -> None:
        self.loop = loop
        self.system: StorageSystem = build_system(system, sim_config)
        config = self.system.config
        self.stages = StagePipeline(
            loop,
            host_servers=config.timing.host_parallelism,
            channels=config.ssd.channels,
            prefix=prefix,
        )
        self.mq = MultiQueueNvme(arbitration)
        self._on_dispatch = on_dispatch
        self._on_complete = on_complete
        self._on_shed = on_shed
        self.max_inflight = max_inflight
        self.inflight = 0
        self.max_inflight_observed = 0
        #: Entries admitted, completed, and dropped cancelled at fetch.
        self.submitted = 0
        self.completed = 0
        self.dropped = 0
        # Fault state (set by repro.cluster.faults): a stalled node
        # fetches nothing; the multipliers scale charged service.
        self.stalled = False
        self.nand_factors: dict[int, float] = {}
        self.pcie_factor = 1.0
        self._pumping = False
        self._pump_needed = False
        self.lanes = [_Lane(spec, self.mq) for spec in tenants]
        self._by_name = {lane.spec.name: lane for lane in self.lanes}
        self._create_files()
        flags = O_RDWR | (O_FINE_GRAINED if fine_grained else 0)
        for lane in self.lanes:
            for file in lane.spec.trace.files:
                lane.fds[file.path] = self.system.open(file.path, flags)
        self._wake_pump = loop.add_settler(self._settle_pump)

    def _create_files(self) -> None:
        sizes: dict[str, int] = {}
        for lane in self.lanes:
            for file in lane.spec.trace.files:
                known = sizes.get(file.path)
                if known is not None:
                    if known != file.size:
                        raise ValueError(
                            f"file {file.path} declared with conflicting sizes "
                            f"({known} vs {file.size})"
                        )
                    continue
                sizes[file.path] = file.size
                self.system.create_file(file.path, file.size)

    # --- fault state ---------------------------------------------------
    def set_faults(
        self, *, stalled: bool, nand_factors: dict[int, float], pcie_factor: float
    ) -> None:
        """Gate the pump and set the per-channel NAND and PCIe multipliers."""
        resumed = self.stalled and not stalled
        self.stalled = stalled
        self.nand_factors = nand_factors
        self.pcie_factor = pcie_factor
        if resumed:
            self._pump()

    # --- admission path ------------------------------------------------
    def admit(self, index: int, entry: Any) -> None:
        """Queue one entry for tenant slot ``index`` and drain its lane."""
        self.submitted += 1
        lane = self.lanes[index]
        lane.backlog.append(entry)
        self._drain(lane)

    def _drain(self, lane: _Lane) -> None:
        """Move backlog entries into the lane's ring as QoS permits."""
        queue = lane.queue
        backlog = lane.backlog
        while backlog:
            if queue.full:
                if lane.spec.qos.full_policy == SHED:
                    lane.metrics.shed += 1
                    assert self._on_shed is not None
                    self._on_shed(backlog.popleft())
                    continue
                break  # block: re-drained when a ring slot frees
            if lane.bucket is not None:
                ready_ns = lane.bucket.take(self.loop.now_ns)
                if ready_ns is not None:
                    if lane.retry is None:
                        lane.metrics.rate_delayed += 1
                        lane.retry = self.loop.schedule_at(
                            ready_ns, lambda: self._retry(lane)
                        )
                    break
            queue.push(backlog.popleft())
            lane.metrics.admitted += 1
        self._pump()

    def _retry(self, lane: _Lane) -> None:
        lane.retry = None
        self._drain(lane)

    # --- dispatch path -------------------------------------------------
    def _pump(self) -> None:
        """Fetch from the rings while device slots are free.

        While the loop is running, the pump is deferred to the settle
        phase: arbitration then sees every ring push and freed slot of
        the whole timestamp wave, so which entries are fetched — and in
        what order — cannot depend on the tie-break order of the events
        that requested pumping.
        """
        if self.loop.running:
            self._pump_needed = True
            self._wake_pump()
            return
        self._pump_now()

    def _settle_pump(self) -> bool:
        if not self._pump_needed:
            return False
        self._pump_needed = False
        self._pump_now()
        return True

    def _pump_now(self) -> None:
        """The actual fetch loop (settle phase, or before the run starts).

        A stalled node fetches nothing; the stall's end pumps again.
        Guarded against re-entry: ``_drain`` (called below when a fetch
        frees a ring slot) ends with a ``_pump`` of its own, which must
        no-op while this frame's while-loop is already fetching.
        """
        if self._pumping or self.stalled:
            return
        self._pumping = True
        try:
            while self.inflight < self.max_inflight:
                fetched = self.mq.fetch()
                if fetched is None:
                    return
                lane = self._by_name[fetched[0]]
                entry = fetched[1]
                if entry.cancelled:
                    # Withdrawn while queued (a hedge loser): drop it
                    # without occupying a device slot.
                    self.dropped += 1
                else:
                    self._dispatch(lane, entry)
                # Fetching freed a ring slot: blocked backlog may advance.
                if lane.backlog:
                    self._drain(lane)
        finally:
            self._pumping = False

    def _dispatch(self, lane: _Lane, entry: Any) -> None:
        """Execute the entry's op in a device slot; replay its demand."""
        self._on_dispatch(entry)
        self.inflight += 1
        if self.inflight > self.max_inflight_observed:
            self.max_inflight_observed = self.inflight
        op = entry.op
        demand = self.system.apply(op, lane.fds[op.path])
        if self.nand_factors or self.pcie_factor != 1.0:
            # Sampled at dispatch (settle phase), so every same-wave
            # dispatch sees the same post-wave fault state.
            channel = demand.channel % len(self.stages.channels)
            demand = RequestDemand(
                host_ns=demand.host_ns,
                nand_ns=demand.nand_ns * self.nand_factors.get(channel, 1.0),
                channel=demand.channel,
                pcie_ns=demand.pcie_ns * self.pcie_factor,
            )
        self.stages.submit(demand, lambda end_ns: self._complete(entry, end_ns))

    def _complete(self, entry: Any, end_ns: float) -> None:
        """The entry left the stage pipeline: report it, free its slot.

        The freed slot matters only to a queued entry: with every ring
        empty the pump would fetch nothing, so it is not woken.  A later
        ring push (``_drain``) and the end of a stall pump on their own.
        """
        self.completed += 1
        self._on_complete(entry, end_ns)
        self.inflight -= 1
        if self.mq.pending:
            self._pump()


class Submission:
    """One op a serving tenant submitted: the entry its node lane holds."""

    __slots__ = ("tenant", "op", "submit_ns")

    #: A single server never withdraws a queued submission.
    cancelled = False

    def __init__(self, tenant: Tenant, op: Op, submit_ns: float) -> None:
        self.tenant = tenant
        self.op = op
        self.submit_ns = submit_ns


class StorageServer:
    """Drive one storage node from many concurrent tenants.

    The server is the tenants' clients, their :class:`TenantMetrics`
    and one :class:`StorageNode`; a submission enters the node's lane
    at once, during the wave (the cluster's router admits at settle).

    ``tiebreak_seed`` arms the loop's schedule-perturbation mode (see
    :func:`repro.sim.perturb.perturbed`).
    """

    def __init__(
        self,
        config: ServeConfig,
        sim_config: SimConfig | None = None,
        *,
        tiebreak_seed: int | None = None,
    ) -> None:
        self.config = config
        if config.backend is not None:
            sim_config = (sim_config or SimConfig()).scaled(backend=config.backend)
        self.loop = EventLoop(tiebreak_seed=tiebreak_seed)
        self.node = StorageNode(
            self.loop,
            config.tenants,
            system=config.system,
            sim_config=sim_config,
            arbitration=config.arbitration,
            max_inflight=config.max_inflight,
            fine_grained=config.fine_grained,
            on_dispatch=self._dispatch,
            on_complete=self._complete,
            on_shed=self._shed,
        )
        self.system = self.node.system
        self._tenants = [
            Tenant(lane.spec, index, config.seed, lane.metrics)
            for index, lane in enumerate(self.node.lanes)
        ]
        for tenant in self._tenants:
            tenant.client.bind(self.loop, self._make_submit(tenant))

    def _make_submit(self, tenant: Tenant):
        node = self.node
        index = tenant.index
        metrics = tenant.metrics

        def submit(op: Op) -> None:
            metrics.submitted += 1
            node.admit(index, Submission(tenant, op, self.loop.now_ns))

        return submit

    def _shed(self, entry: Submission) -> None:
        """Reject one op (queue full, shed policy) with a typed error.

        The client notification is deferred onto the loop: a closed-loop
        client reacts to a shed by submitting its next op immediately,
        and doing that synchronously would recurse drain->shed->submit
        unboundedly when the ring stays full.
        """
        rejection = AdmissionRejected(entry.tenant.spec.name, "submission queue full")
        client = entry.tenant.client
        op = entry.op
        self.loop.schedule(0.0, lambda: client.on_rejected(op, rejection))

    def _dispatch(self, entry: Submission) -> None:
        metrics = entry.tenant.metrics
        metrics.queue_delay.record(self.loop.now_ns - entry.submit_ns)
        op = entry.op
        if isinstance(op, ReadOp):
            metrics.reads += 1
            metrics.demanded_bytes += op.size
        else:
            metrics.writes += 1

    def _complete(self, entry: Submission, end_ns: float) -> None:
        tenant = entry.tenant
        metrics = tenant.metrics
        metrics.completed += 1
        metrics.latency.record(end_ns - entry.submit_ns)
        tenant.client.on_done(entry.op, completed=True)

    # --- run -----------------------------------------------------------
    def run(self) -> ServeResult:
        """Start every client, drain the loop, snapshot the metrics."""
        for tenant in self._tenants:
            tenant.client.start()
        elapsed_ns = self.loop.run(self.config.max_time_ns)
        return ServeResult(
            system=self.config.system,
            backend=self.system.config.backend,
            arbitration=self.config.arbitration,
            elapsed_ns=elapsed_ns,
            max_inflight_observed=self.node.max_inflight_observed,
            events_processed=self.loop.processed,
            tenants={
                tenant.spec.name: tenant.metrics.snapshot(elapsed_ns)
                for tenant in self._tenants
            },
        )


def serve(
    config: ServeConfig,
    sim_config: SimConfig | None = None,
    *,
    tiebreak_seed: int | None = None,
) -> ServeResult:
    """Convenience one-shot: build a server, run it, return the result."""
    return StorageServer(config, sim_config, tiebreak_seed=tiebreak_seed).run()


__all__ = [
    "CLOSED",
    "OPEN",
    "ServeConfig",
    "StorageNode",
    "StorageServer",
    "Submission",
    "Tenant",
    "TenantSpec",
    "serve",
    "validate_tenants",
]

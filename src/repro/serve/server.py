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
4. the fetched op executes against the storage system, which records
   the request's :class:`~repro.sim.trace.StageTrace` exactly as in
   single-stream mode — the runtime sanitizer's ledger==trace-sums
   invariant is checked at every root-trace close, now with many
   requests in flight;
5. the finished trace's queueing demand (``StageTrace.demand``) is
   submitted to the server's :class:`~repro.sim.queueing.StagePipeline`
   (host -> NAND channel -> PCIe on the loop), so the op's *completion
   time* reflects contention with every other in-flight request;
6. completion feeds the tenant's tail-latency accounting and, for
   closed-loop clients, releases the next submission.

Steps 3-5 are :class:`ServerCore`, shared with the cluster's
:class:`~repro.cluster.node.ClusterNode`; :class:`StorageServer` adds
the clients, QoS admission and per-tenant metrics.

Same ``ServeConfig`` + seed => byte-identical :class:`ServeResult`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.config import SimConfig
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.serve.clients import CLOSED, OPEN, Client, build_client
from repro.serve.engine import EventLoop
from repro.serve.metrics import ServeResult, TenantMetrics
from repro.serve.nvme_mq import ARBITERS, MultiQueueNvme
from repro.serve.qos import SHED, AdmissionRejected, TenantQoS, TokenBucket
from repro.sim import racecheck as racecheck_mod
from repro.sim.queueing import RequestDemand, StagePipeline
from repro.sim.racecheck import RaceChecker
from repro.system import StorageSystem, build_system
from repro.workloads.trace import Op, ReadOp, Trace, WriteOp


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
    #: Interconnect/placement backend the storage system's device runs
    #: on (see :mod:`repro.ssd.backends`).  ``None`` inherits whatever
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
        if not self.tenants:
            raise ValueError("need at least one tenant")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        if self.arbitration not in ARBITERS:
            raise ValueError(
                f"unknown arbitration {self.arbitration!r}; choose from {sorted(ARBITERS)}"
            )
        if self.max_inflight <= 0:
            raise ValueError("max_inflight must be positive")


class ServerTenant:
    """One tenant as a server core sees it: backlog and open files."""

    __slots__ = ("spec", "backlog", "fds")

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        #: Entries admitted but not yet in the tenant's NVMe ring.
        self.backlog: deque = deque()
        self.fds: dict[str, int] = {}


class ServerCore:
    """What a storage server and a cluster node share.

    One registered :class:`~repro.system.StorageSystem` (retaining each
    finished root trace so a dispatched op's demand can be read off
    it), per-tenant NVMe submission rings behind the RR/WRR arbiter,
    ``max_inflight`` device slots, and a
    :class:`~repro.sim.queueing.StagePipeline` whose stage FIFOs are
    named with ``prefix``.  The settle-deferred pump fetches from the
    rings while slots are free and hands each entry to ``_dispatch``;
    fetching frees a ring slot, so blocked backlog re-enters ``_drain``.

    Subclasses supply ``_drain`` (admission into the rings) and
    ``_dispatch`` (what a fetched entry does: typically ``_execute``
    then ``stages.submit``, with ``_release`` on completion), and
    register :meth:`_settle_pump` as a settler after any settler that
    feeds the rings, keeping the returned wake handle as
    ``_wake_pump`` (``_pump`` calls it when it defers to the settle
    phase).
    """

    def __init__(
        self,
        loop: EventLoop,
        tenants: Sequence[ServerTenant],
        *,
        system: str,
        sim_config: SimConfig | None,
        arbitration: str,
        max_inflight: int,
        fine_grained: bool,
        racecheck: RaceChecker | None,
        prefix: str = "",
    ) -> None:
        self.loop = loop
        self.racecheck = racecheck
        self.system: StorageSystem = build_system(system, sim_config)
        self.system.tracer.retain = True
        config = self.system.config
        self.stages = StagePipeline(
            loop,
            host_servers=config.timing.host_parallelism,
            channels=config.ssd.channels,
            prefix=prefix,
        )
        self.mq = MultiQueueNvme(arbitration)
        self.mq.racecheck = racecheck
        if racecheck is not None:
            # The storage system's caches/mapping are order-sensitive
            # shared state too: two simultaneous unordered dispatches
            # would hit it in tie-break order.
            racecheck.track(self.system, f"{prefix}system:{system}")
            racecheck.track(self.mq, f"{prefix}nvme-mq:{arbitration}")
        self.max_inflight = max_inflight
        self.inflight = 0
        self.max_inflight_observed = 0
        self._pumping = False
        self._pump_needed = False
        self._tenants = list(tenants)
        self._by_name = {state.spec.name: state for state in self._tenants}
        self._create_files()
        flags = O_RDWR | (O_FINE_GRAINED if fine_grained else 0)
        for state in self._tenants:
            spec = state.spec
            queue = self.mq.add_queue(spec.name, depth=spec.qos.queue_depth, weight=spec.qos.weight)
            for file in spec.trace.files:
                state.fds[file.path] = self.system.open(file.path, flags)
            if racecheck is not None:
                # A push always moves the tenant backlog *head* into the
                # ring, so the pushed entry is a function of tenant state,
                # not of which same-time event does the pushing:
                # simultaneous pushes commute.  (Pops happen only in the
                # settle-phase pump, already fenced after the wave.)
                racecheck.track(queue, f"{prefix}ring:{spec.name}", commutative_ops={"push"})

    def _create_files(self) -> None:
        sizes: dict[str, int] = {}
        for state in self._tenants:
            for file in state.spec.trace.files:
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

    # --- admission and dispatch policy (subclasses) ---------------------
    def _drain(self, state: ServerTenant) -> None:
        """Move backlog entries into the tenant's ring, then ``_pump``."""
        raise NotImplementedError

    def _dispatch(self, state: ServerTenant, entry: object) -> None:
        """Handle one entry fetched from ``state``'s ring."""
        raise NotImplementedError

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

        Guarded against re-entry: ``_drain`` (called below when a fetch
        frees a ring slot) ends with a ``_pump`` of its own, which must
        no-op while this frame's while-loop is already fetching.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            while self.inflight < self.max_inflight:
                fetched = self.mq.fetch()
                if fetched is None:
                    return
                tenant, entry = fetched
                state = self._by_name[tenant]
                self._dispatch(state, entry)
                # Fetching freed a ring slot: blocked backlog may advance.
                if state.backlog:
                    self._drain(state)
        finally:
            self._pumping = False

    def _execute(self, state: ServerTenant, op: Op) -> RequestDemand:
        """Run ``op`` in a device slot; return its recorded queueing demand."""
        self.inflight += 1
        if self.inflight > self.max_inflight_observed:
            self.max_inflight_observed = self.inflight
        if self.racecheck is not None:
            self.racecheck.access(self.system, "write", "io")
        fd = state.fds[op.path]
        if isinstance(op, ReadOp):
            self.system.read(fd, op.offset, op.size)
        elif isinstance(op, WriteOp):
            payload = (
                op.payload()
                if self.system.config.transfer_data
                else b"\x00" * op.size
            )
            self.system.write(fd, op.offset, payload)
        else:  # pragma: no cover - trace model is closed
            raise TypeError(f"unknown op {op!r}")
        return self.system.tracer.finished.pop().demand()

    def _release(self) -> None:
        """An executed op left the stage pipeline: free its device slot."""
        self.inflight -= 1
        self._pump()


class _TenantState(ServerTenant):
    """Server-side live state of one tenant."""

    __slots__ = ("metrics", "bucket", "client", "drain_event")

    def __init__(self, spec: TenantSpec, client: Client) -> None:
        super().__init__(spec)
        self.metrics = TenantMetrics(spec.name)
        self.bucket: TokenBucket | None = (
            TokenBucket(spec.qos.rate_limit_qps, spec.qos.burst)
            if spec.qos.rate_limit_qps is not None
            else None
        )
        self.client = client
        #: Pending timer for a token-bucket retry (avoid duplicates).
        self.drain_event = None


class StorageServer(ServerCore):
    """Drive one storage system from many concurrent tenants.

    ``racecheck`` attaches a :class:`~repro.sim.racecheck.RaceChecker`
    (created automatically when ``REPRO_RACECHECK=1`` or the CLI's
    ``--racecheck`` armed :func:`repro.sim.racecheck.enable`); every
    shared object — stage FIFOs, submission rings, QoS buckets,
    latency histograms, and the storage system itself — is registered,
    so any order-dependent same-timestamp access raises a
    ``virtual-time race`` with both event stacks.  ``tiebreak_seed``
    arms the loop's schedule-perturbation mode (see
    :func:`repro.sim.racecheck.perturbed`).
    """

    def __init__(
        self,
        config: ServeConfig,
        sim_config: SimConfig | None = None,
        *,
        racecheck: RaceChecker | None = None,
        tiebreak_seed: int | None = None,
    ) -> None:
        self.config = config
        if racecheck is None and racecheck_mod.active():
            racecheck = RaceChecker()
        if config.backend is not None:
            sim_config = (sim_config or SimConfig()).scaled(backend=config.backend)
        super().__init__(
            EventLoop(racecheck=racecheck, tiebreak_seed=tiebreak_seed),
            [
                _TenantState(spec, build_client(spec, index, config.seed))
                for index, spec in enumerate(config.tenants)
            ],
            system=config.system,
            sim_config=sim_config,
            arbitration=config.arbitration,
            max_inflight=config.max_inflight,
            fine_grained=config.fine_grained,
            racecheck=racecheck,
        )
        self._wake_pump = self.loop.add_settler(self._settle_pump)
        for state in self._tenants:
            state.client.bind(self.loop, self._make_submit(state))
            if racecheck is None:
                continue
            name = state.spec.name
            if state.bucket is not None:
                state.bucket.racecheck = racecheck
                # Token arithmetic commutes; which submitter a failed
                # take delays does not matter, because the delayed op
                # is the backlog head either way.
                racecheck.track(state.bucket, f"bucket:{name}", commutative_ops={"take"})
            # Histogram inserts commute (order-independent sketch), so
            # only mixed access patterns can race.
            racecheck.track(state.metrics.latency, f"latency:{name}", commutative_ops={"record"})
            racecheck.track(
                state.metrics.queue_delay, f"queue-delay:{name}", commutative_ops={"record"}
            )

    # --- submission path ----------------------------------------------
    def _make_submit(self, state: _TenantState):
        def submit(op: Op) -> None:
            state.metrics.submitted += 1
            state.backlog.append((op, self.loop.now_ns))
            self._drain(state)

        return submit

    def _drain(self, state: _TenantState) -> None:
        """Move backlog ops into the NVMe ring as QoS permits."""
        queue = self.mq.queue(state.spec.name)
        while state.backlog:
            if queue.full:
                if state.spec.qos.full_policy == SHED:
                    op, _ = state.backlog.popleft()
                    self._shed(state, op)
                    continue
                break  # block: re-drained when a ring slot frees
            if state.bucket is not None:
                ready_ns = state.bucket.take(self.loop.now_ns)
                if ready_ns is not None:
                    if state.drain_event is None:
                        state.metrics.rate_delayed += 1
                        state.drain_event = self.loop.schedule_at(
                            ready_ns, lambda: self._drain_retry(state)
                        )
                    break
            op, submit_ns = state.backlog.popleft()
            queue.push((op, submit_ns))
            state.metrics.admitted += 1
        self._pump()

    def _drain_retry(self, state: _TenantState) -> None:
        state.drain_event = None
        self._drain(state)

    def _shed(self, state: _TenantState, op: Op) -> None:
        """Reject one op (queue full, shed policy) with a typed error.

        The client notification is deferred onto the loop: a closed-loop
        client reacts to a shed by submitting its next op immediately,
        and doing that synchronously would recurse drain->shed->submit
        unboundedly when the ring stays full.
        """
        state.metrics.shed += 1
        rejection = AdmissionRejected(state.spec.name, "submission queue full")
        client = state.client
        self.loop.schedule(0.0, lambda: client.on_rejected(op, rejection))

    # --- dispatch path -------------------------------------------------
    def _dispatch(self, state: _TenantState, entry: tuple[Op, float]) -> None:
        """Execute the op and replay its recorded demand on the stages."""
        op, submit_ns = entry
        metrics = state.metrics
        if self.racecheck is not None:
            self.racecheck.access(metrics.queue_delay, "write", "record")
        metrics.queue_delay.record(self.loop.now_ns - submit_ns)
        demand = self._execute(state, op)
        if isinstance(op, ReadOp):
            metrics.reads += 1
            metrics.demanded_bytes += op.size
        else:
            metrics.writes += 1
        self.stages.submit(demand, lambda end_ns: self._complete(state, op, submit_ns, end_ns))

    def _complete(self, state: _TenantState, op: Op, submit_ns: float, end_ns: float) -> None:
        metrics = state.metrics
        metrics.completed += 1
        if self.racecheck is not None:
            self.racecheck.access(metrics.latency, "write", "record")
        metrics.latency.record(end_ns - submit_ns)
        state.client.on_done(op, completed=True)
        self._release()

    # --- run -----------------------------------------------------------
    def run(self) -> ServeResult:
        """Start every client, drain the loop, snapshot the metrics."""
        for state in self._tenants:
            state.client.start()
        elapsed_ns = self.loop.run(self.config.max_time_ns)
        return ServeResult(
            system=self.config.system,
            backend=self.system.config.backend,
            arbitration=self.config.arbitration,
            elapsed_ns=elapsed_ns,
            max_inflight_observed=self.max_inflight_observed,
            events_processed=self.loop.processed,
            tenants={
                state.spec.name: state.metrics.snapshot(elapsed_ns)
                for state in self._tenants
            },
        )


def serve(
    config: ServeConfig,
    sim_config: SimConfig | None = None,
    *,
    racecheck: RaceChecker | None = None,
    tiebreak_seed: int | None = None,
) -> ServeResult:
    """Convenience one-shot: build a server, run it, return the result."""
    return StorageServer(
        config, sim_config, racecheck=racecheck, tiebreak_seed=tiebreak_seed
    ).run()


__all__ = [
    "CLOSED",
    "OPEN",
    "ServeConfig",
    "ServerCore",
    "ServerTenant",
    "StorageServer",
    "TenantSpec",
    "serve",
]

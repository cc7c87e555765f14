"""One cluster storage server: its own SSD + HMB + rings, a shared loop.

A :class:`ClusterNode` runs on the same
:class:`~repro.serve.server.ServerCore` as the single-server
:class:`~repro.serve.server.StorageServer`, on one wave+settle
:class:`~repro.serve.engine.EventLoop` shared with its peers: each node
owns a full :class:`~repro.system.StorageSystem` instance (its own
device, HMB, fine-grained cache and mapping), per-tenant NVMe
submission rings behind the WRR/RR arbiter, and its own host/channel/
PCIe :class:`~repro.sim.queueing.StagePipeline` (FIFOs named
``s0:host`` ...) — contention is per-server, the timeline is
cluster-wide.  What the node adds to the core is cluster-only: settled
admission of router attempts, stalls and fault factors, and dropping
cancelled hedge losers at fetch time.

Determinism plumbing mirrors the serving layer:

- **admission is settled**: attempts routed to the node during a
  timestamp wave are buffered and pushed into the rings in stable
  ``order_key`` order at settle time, so ring content never depends on
  the tie-break order of the events that routed them;
- **dispatch is settled**: the core's pump fetches from the arbiter
  only in the settle phase, seeing every ring push and freed slot of
  the whole wave, and the node's stage pipeline stamps each dispatched
  attempt with a stable per-node key for all stage contention
  downstream.

Faults (:mod:`repro.cluster.faults`) act here: a ``server_stall``
freezes the pump (in-pipeline requests drain, rings back up), a
``die_slowdown`` multiplies the charged NAND-channel service of one
channel, a ``link_degrade`` multiplies every PCIe-stage service.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.cluster.faults import DIE_SLOWDOWN, LINK_DEGRADE, SERVER_STALL, FaultSpec
from repro.cluster.metrics import ServerMetrics
from repro.config import SimConfig
from repro.serve.engine import EventLoop
from repro.serve.server import ServerCore, ServerTenant
from repro.sim.queueing import RequestDemand

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.router import Attempt
    from repro.serve.server import TenantSpec
    from repro.sim.racecheck import RaceChecker


class ClusterNode(ServerCore):
    """One shard server on the shared cluster event loop."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        *,
        system: str,
        sim_config: SimConfig | None,
        tenants: tuple["TenantSpec", ...],
        arbitration: str = "wrr",
        max_inflight: int = 8,
        fine_grained: bool = True,
        racecheck: "RaceChecker | None" = None,
    ) -> None:
        super().__init__(
            loop,
            [ServerTenant(spec) for spec in tenants],
            system=system,
            sim_config=sim_config,
            arbitration=arbitration,
            max_inflight=max_inflight,
            fine_grained=fine_grained,
            racecheck=racecheck,
            prefix=f"{name}:",
        )
        self.name = name
        self.metrics = ServerMetrics(name)
        #: Completion hook wired by the router after construction.
        self.on_attempt_done: Callable[["Attempt", float], None] | None = None
        #: Wave-buffered admissions, settled in stable order_key order.
        self._pending_admissions: list["Attempt"] = []
        # Fault state: stalls nest (overlapping campaigns), slowdown
        # factors multiply while their specs are active.
        self._stall_depth = 0
        self._active_faults: list[FaultSpec] = []
        # Admissions settle before the pump so a same-pass fetch sees
        # every push of the pass (settle passes repeat until quiescent
        # either way; the order just saves a pass).
        self._wake_admissions = loop.add_settler(self._settle_admissions)
        self._wake_pump = loop.add_settler(self._settle_pump)

    # --- fault state ---------------------------------------------------
    def begin_fault(self, spec: FaultSpec) -> None:
        self.metrics.faults_begun += 1
        if spec.kind == SERVER_STALL:
            self._stall_depth += 1
        else:
            self._active_faults.append(spec)
            # Keep a canonical order so the float product of several
            # same-kind factors never depends on which same-instant
            # begin event fired first.
            self._active_faults.sort(
                key=lambda active: (
                    active.kind,
                    active.start_ns,
                    active.duration_ns,
                    active.channel,
                    active.die_slowdown_factor,
                    active.link_degrade_factor,
                )
            )

    def end_fault(self, spec: FaultSpec) -> None:
        if spec.kind == SERVER_STALL:
            self._stall_depth -= 1
            if self._stall_depth == 0:
                self._pump()
        else:
            self._active_faults.remove(spec)

    @property
    def stalled(self) -> bool:
        return self._stall_depth > 0

    def die_slowdown_factor(self, channel_index: int) -> float:
        factor = 1.0
        for spec in self._active_faults:
            if spec.kind == DIE_SLOWDOWN and spec.channel == channel_index:
                factor *= spec.die_slowdown_factor
        return factor

    def link_degrade_factor(self) -> float:
        factor = 1.0
        for spec in self._active_faults:
            if spec.kind == LINK_DEGRADE:
                factor *= spec.link_degrade_factor
        return factor

    # --- admission path ------------------------------------------------
    def submit(self, attempt: "Attempt") -> None:
        """Route one attempt into this node (buffered while running)."""
        self.metrics.attempts += 1
        if self.loop.running:
            self._pending_admissions.append(attempt)
            self._wake_admissions()
            return
        self._admit(attempt)

    def _settle_admissions(self) -> bool:
        if not self._pending_admissions:
            return False
        batch = sorted(self._pending_admissions, key=lambda a: a.order_key)
        self._pending_admissions.clear()
        for attempt in batch:
            self._admit(attempt)
        return True

    def _admit(self, attempt: "Attempt") -> None:
        state = self._tenants[attempt.tenant_index]
        state.backlog.append(attempt)
        self._drain(state)

    def _drain(self, state: ServerTenant) -> None:
        """Move backlog attempts into the tenant's ring while it has room."""
        queue = self.mq.queue(state.spec.name)
        while state.backlog and not queue.full:
            queue.push(state.backlog.popleft())
        self._pump()

    # --- dispatch path -------------------------------------------------
    def _pump_now(self) -> None:
        # A stalled server fetches nothing; the stall's end pumps again.
        if not self.stalled:
            super()._pump_now()

    def _dispatch(self, state: ServerTenant, attempt: "Attempt") -> None:
        """Execute the attempt's op and replay its demand on the stages."""
        if attempt.cancelled:
            # A hedge loser cancelled while still queued: drop it
            # without occupying a device slot.
            self.metrics.cancelled += 1
            return
        attempt.dispatched = True
        demand = self._execute(state, attempt.request.op)
        channel_index = demand.channel % len(self.stages.channels)
        # Fault multipliers are sampled at dispatch (settle phase), so
        # every same-wave dispatch sees the same post-wave fault state.
        demand = RequestDemand(
            host_ns=demand.host_ns,
            nand_ns=demand.nand_ns * self.die_slowdown_factor(channel_index),
            channel=demand.channel,
            pcie_ns=demand.pcie_ns * self.link_degrade_factor(),
        )
        self.stages.submit(demand, lambda end_ns: self._complete(attempt, end_ns))

    def _complete(self, attempt: "Attempt", end_ns: float) -> None:
        self.metrics.completed += 1
        assert self.on_attempt_done is not None
        self.on_attempt_done(attempt, end_ns)
        self._release()


__all__ = ["ClusterNode"]

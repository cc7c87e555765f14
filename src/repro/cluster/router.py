"""The cluster front end: key routing, replica selection, hedging.

Every tenant request enters here.  The router hashes the record key
(``path@offset`` — the fine-grained cache's natural granularity) onto
the ring, applies the replica policy, and admits one :class:`Attempt`
per chosen server into that server's
:class:`~repro.serve.server.StorageNode` — the same node class a
single :class:`~repro.serve.server.StorageServer` runs.  Reads
complete on the first winning replica answer; writes fan out to the
full replica set and complete when the last copy lands (write-all, the
strongest and simplest consistency for a read-path study).

Tie-break independence — the property the perturbation harness checks
— is engineered the same way as in the serving layer: every decision
that could depend on the order of simultaneous events is deferred to
the settle phase and processed in a *stable* order:

- **routing is settled**: submissions during a wave buffer into
  ``_pending_requests``; the router's settler (registered before any
  node's pump, so it runs first in every pass) routes them sorted by
  ``order_key`` — tenant slot, then the tenant's own submission count,
  which follows its client's draw order under every tie-break — so
  least-outstanding choices see the aggregate post-wave outstanding
  counts;
- **admission is settled**: the attempts a pass routes or hedges are
  admitted to their nodes at the end of the pass in attempt-key order,
  so ring content never depends on the tie-break, and the nodes' pumps
  later in the same pass fetch them exactly as a single server fetches
  its wave-time submissions — a one-node cluster *is* a server;
- **hedging is settled**: a hedge timer marks the request hedge-due;
  the settler issues the hedge only if the request is still
  unsatisfied *after* the whole wave — a completion at exactly the
  hedge deadline beats the hedge under every event order;
- **first-win ties prefer the primary**: if two replicas answer at the
  same virtual nanosecond, the winner is the lower-rank attempt
  regardless of which completion event ran first (the recorded latency
  is identical either way; only the win/waste attribution needs the
  rule).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.metrics import ClusterTenantMetrics
from repro.cluster.policies import ReplicaPolicy
from repro.serve.server import Tenant
from repro.workloads.trace import Op, WriteOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.ring import HashRing
    from repro.serve.engine import EventLoop, ScheduledEvent
    from repro.serve.server import StorageNode, TenantSpec


class Request:
    """One tenant operation in flight across the cluster."""

    __slots__ = (
        "tenant",
        "op",
        "key",
        "order_key",
        "submit_ns",
        "replicas",
        "is_write",
        "attempts",
        "satisfied_ns",
        "winner",
        "pending_writes",
        "hedge_event",
        "hedge_deadline_ns",
        "hedge_due",
    )

    def __init__(
        self,
        tenant: Tenant,
        op: Op,
        key: str,
        submit_ns: float,
        replicas: tuple[str, ...],
        seq: int,
    ) -> None:
        self.tenant = tenant
        self.op = op
        self.key = key
        self.submit_ns = submit_ns
        self.replicas = replicas
        self.is_write = isinstance(op, WriteOp)
        # Stable order among same-wave requests: tenant slot, then the
        # tenant's own submission count, which follows its client's
        # draw order under every tie-break.
        self.order_key = (tenant.index, seq)
        self.attempts: list[Attempt] = []
        self.satisfied_ns: float | None = None
        self.winner: "Attempt | None" = None
        self.pending_writes = 0
        self.hedge_event: "ScheduledEvent | None" = None
        self.hedge_deadline_ns = 0.0
        self.hedge_due = False


class Attempt:
    """One copy of a request sent to one server: a node lane's entry."""

    __slots__ = ("request", "op", "server", "index", "cancelled", "dispatched")

    def __init__(self, request: Request, server: str, index: int) -> None:
        self.request = request
        self.op = request.op
        self.server = server
        #: 0 = first/primary attempt; 1 = the hedge (reads), or the
        #: replica rank (writes).
        self.index = index
        self.cancelled = False
        self.dispatched = False

    @property
    def tenant_index(self) -> int:
        return self.request.tenant.index

    @property
    def order_key(self) -> tuple:
        return self.request.order_key + (self.index,)


class Router:
    """Consistent-hash front end over the cluster's nodes.

    The router's settler is registered before any node exists, so it
    runs first in every settle pass: the pass's routed and hedged
    attempts enter the node rings before any node pump fetches, just
    as a single server's wave-time submissions do.  ``nodes`` is filled
    by the owner once the nodes are built.
    """

    def __init__(
        self,
        loop: "EventLoop",
        ring: "HashRing",
        policy: ReplicaPolicy,
        tenants: tuple["TenantSpec", ...],
        *,
        seed: int,
    ) -> None:
        self.loop = loop
        self.ring = ring
        self.nodes: dict[str, "StorageNode"] = {}
        self.policy = policy
        #: Router-visible load per server: attempts issued minus
        #: attempts completed or cancelled (what least-outstanding and
        #: hedge-target selection read).
        self.outstanding: dict[str, int] = {name: 0 for name in ring.servers}
        self._pending_requests: list[Request] = []
        self._pending_hedges: list[Request] = []
        #: Attempts issued in the running settle pass, admitted at its end.
        self._issued: list[Attempt] = []
        self.tenants: list[Tenant] = []
        for index, spec in enumerate(tenants):
            tenant = Tenant(spec, index, seed, ClusterTenantMetrics(spec.name))
            self.tenants.append(tenant)
            tenant.client.bind(loop, self._make_submit(tenant))
        self._wake = loop.add_settler(self._settle)

    # --- clients -------------------------------------------------------
    def start_clients(self) -> None:
        for tenant in self.tenants:
            tenant.client.start()

    # --- submission (wave phase: buffer only) --------------------------
    def _make_submit(self, tenant: Tenant):
        metrics = tenant.metrics

        def submit(op: Op) -> None:
            metrics.submitted += 1
            key = f"{op.path}@{op.offset}"
            request = Request(
                tenant, op, key, self.loop.now_ns, self.ring.replicas(key), metrics.submitted
            )
            if self.loop.running:
                self._pending_requests.append(request)
                self._wake()
            else:
                self._route(request)

        return submit

    # --- settle phase: route + hedge + admit in stable order ------------
    def _settle(self) -> bool:
        if not (self._pending_requests or self._pending_hedges):
            return False
        requests = sorted(self._pending_requests, key=lambda r: r.order_key)
        self._pending_requests.clear()
        hedges = sorted(self._pending_hedges, key=lambda r: r.order_key)
        self._pending_hedges.clear()
        for request in requests:
            self._route(request)
        for request in hedges:
            self._issue_hedge(request)
        issued = sorted(self._issued, key=lambda a: a.order_key)
        self._issued.clear()
        for attempt in issued:
            self.nodes[attempt.server].admit(attempt.tenant_index, attempt)
        return True

    def _route(self, request: Request) -> None:
        metrics = request.tenant.metrics
        if request.is_write:
            # Write-all: one attempt per replica, complete on the last.
            metrics.writes += 1
            request.pending_writes = len(request.replicas)
            for rank, server in enumerate(request.replicas):
                self._issue(request, server, rank)
            return
        metrics.reads += 1
        metrics.demanded_bytes += request.op.size
        first = self.policy.pick(request.replicas, self._outstanding_of)
        self._issue(request, first, 0)
        delay_ns = self.policy.hedge_delay_ns
        if delay_ns is not None and len(request.replicas) > 1:
            request.hedge_deadline_ns = self.loop.now_ns + delay_ns
            request.hedge_event = self.loop.schedule(
                delay_ns, self._make_hedge_timer(request)
            )

    def _issue(self, request: Request, server: str, index: int) -> None:
        attempt = Attempt(request, server, index)
        request.attempts.append(attempt)
        self.outstanding[server] += 1
        if self.loop.running:
            self._issued.append(attempt)
        else:
            self.nodes[server].admit(attempt.tenant_index, attempt)

    def _make_hedge_timer(self, request: Request):
        def hedge_due() -> None:
            request.hedge_event = None
            if request.satisfied_ns is None and not request.hedge_due:
                request.hedge_due = True
                self._pending_hedges.append(request)
                self._wake()

        return hedge_due

    def _issue_hedge(self, request: Request) -> None:
        """Issue the second attempt (settle phase, still unsatisfied)."""
        if request.satisfied_ns is not None or len(request.attempts) != 1:
            return
        first = request.attempts[0].server
        target = self.policy.hedge_pick(
            request.replicas, first, self._outstanding_of
        )
        if target is None:
            return
        request.tenant.metrics.hedges_issued += 1
        self._issue(request, target, 1)

    def _outstanding_of(self, server: str) -> int:
        return self.outstanding[server]

    # --- node callbacks ------------------------------------------------
    def on_attempt_dispatched(self, attempt: Attempt) -> None:
        """A node fetched the attempt into a device slot (settle phase)."""
        attempt.dispatched = True

    def on_attempt_done(self, attempt: Attempt, end_ns: float) -> None:
        self.outstanding[attempt.server] -= 1
        request = attempt.request
        metrics = request.tenant.metrics
        if request.is_write:
            request.pending_writes -= 1
            if request.pending_writes == 0:
                self._finish(request, attempt, end_ns)
            return
        if request.satisfied_ns is None:
            self._finish(request, attempt, end_ns)
            if attempt.index > 0:
                metrics.hedges_won += 1
            self._cancel_losers(request, attempt)
            return
        # A loser replica answered after (or tied with) the winner.
        winner = request.winner
        if (
            end_ns == request.satisfied_ns
            and winner is not None
            and attempt.index < winner.index
        ):
            # Same-nanosecond tie: credit the primary regardless of
            # which completion event the tie-break ran first.  The
            # recorded latency is identical; only attribution moves.
            request.winner = attempt
            metrics.hedges_won -= 1
        metrics.hedges_wasted += 1

    def _finish(self, request: Request, attempt: Attempt, end_ns: float) -> None:
        request.satisfied_ns = end_ns
        request.winner = attempt
        metrics = request.tenant.metrics
        metrics.completed += 1
        latency_ns = end_ns - request.submit_ns
        metrics.latency.record(latency_ns)
        if not request.is_write:
            metrics.read_latency.record(latency_ns)
        request.tenant.client.on_done(request.op, completed=True)

    def _cancel_losers(self, request: Request, winner: Attempt) -> None:
        """Cancel-on-first-win: reap the timer and any queued loser.

        A timer due at this very nanosecond is left to fire as a no-op:
        under another tie-break it runs before this completion, so
        cancelling it here would make the event count order-dependent.
        """
        if (
            request.hedge_event is not None
            and request.hedge_deadline_ns != self.loop.now_ns
        ):
            request.hedge_event.cancel()
            request.hedge_event = None
        for other in request.attempts:
            if other is winner or other.cancelled:
                continue
            if not other.dispatched:
                # Still queued in a node lane: the node drops it at
                # fetch time without executing it.
                other.cancelled = True
                self.outstanding[other.server] -= 1
                request.tenant.metrics.hedges_cancelled += 1
            # Already in the stage pipeline: it will run to completion
            # and be counted as wasted work when it reports back.


__all__ = ["Attempt", "Request", "Router"]

"""NVMe multi-queue arbitration: per-tenant submission rings + arbiters.

NVMe controllers fetch commands from many submission queues and the
spec defines how they pick: round-robin, or weighted round-robin with
per-queue credits (NVMe 1.2 §4.11).  This module models exactly that
decision: each tenant owns a FIFO submission ring that, like an NVMe
ring of ``depth`` slots, is full at ``depth - 1`` entries (which is
what the queue-full QoS policy keys off), and an :class:`Arbiter`
chooses which non-empty ring the device services next whenever a
device slot frees.

Arbitration order is a pure function of the submission history, so the
serving layer stays deterministic.
"""

from __future__ import annotations

import abc
from collections import deque


class QueueFull(Exception):
    """The tenant's submission ring has no free slot."""


class _Backlog:
    """Entries queued across every ring of one controller."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries = 0


class TenantQueue:
    """One tenant's submission ring plus arbitration bookkeeping.

    Rings are shared between the submitting client and the fetching
    arbiter.  Ring slot order is tenant-visible state (queue-full sheds
    key off it), so a ring takes pushes only from its own tenant's
    backlog, in backlog order, and the arbiter pops only from the
    node's pump, which a running loop defers to its settle phase.

    ``push`` and ``pop`` keep the owning controller's backlog count
    (shared by all its rings) in step with the rings, so the
    controller can tell it is idle without asking its arbiter.
    """

    def __init__(
        self, tenant: str, depth: int = 64, *, weight: int = 1, backlog: _Backlog | None = None
    ) -> None:
        if weight <= 0:
            raise ValueError("arbitration weight must be positive")
        self.tenant = tenant
        self.ring: deque[object] = deque()
        #: An NVMe ring of ``depth`` slots holds ``depth - 1`` entries.
        self.capacity = depth - 1
        self.weight = weight
        self.submitted = 0
        self.fetched = 0
        self._backlog = backlog if backlog is not None else _Backlog()

    @property
    def full(self) -> bool:
        return len(self.ring) >= self.capacity

    def push(self, entry: object) -> None:
        if len(self.ring) >= self.capacity:
            raise QueueFull(self.tenant)
        self.ring.append(entry)
        self.submitted += 1
        self._backlog.entries += 1

    def pop(self) -> object:
        entry = self.ring.popleft()
        self.fetched += 1
        self._backlog.entries -= 1
        return entry


class Arbiter(abc.ABC):
    """Picks the next queue to service among the non-empty ones."""

    @abc.abstractmethod
    def select(self, queues: list[TenantQueue]) -> int | None:
        """Index of the queue to fetch from, or ``None`` if all empty."""


class RoundRobinArbiter(Arbiter):
    """NVMe default: strict round-robin over non-empty queues."""

    def __init__(self) -> None:
        self._next = 0

    def select(self, queues: list[TenantQueue]) -> int | None:
        count = len(queues)
        for step in range(count):
            index = (self._next + step) % count
            if queues[index].ring:
                self._next = (index + 1) % count
                return index
        return None


class WeightedRoundRobinArbiter(Arbiter):
    """NVMe WRR: each queue gets ``weight`` fetches per credit round.

    Credits reload from the queue weights whenever every non-empty
    queue is out of credits, so two saturated queues with weights 2:1
    are fetched 2:1 over any window — while an idle queue's unused
    credits never pile up into a later burst (work-conserving).
    """

    def __init__(self) -> None:
        self._credits: list[int] = []
        self._next = 0

    def select(self, queues: list[TenantQueue]) -> int | None:
        count = len(queues)
        credits = self._credits
        if len(credits) != count:
            credits = self._credits = [queue.weight for queue in queues]
        for _ in range(2):  # second pass runs after a credit reload
            busy = False
            for step in range(count):
                index = (self._next + step) % count
                if queues[index].ring:
                    if credits[index] > 0:
                        credits[index] -= 1
                        # Stay on this queue while it has credits: WRR
                        # serves bursts of `weight` from each queue.
                        self._next = index if credits[index] > 0 else (index + 1) % count
                        return index
                    busy = True
            if not busy:
                return None
            for index, queue in enumerate(queues):
                credits[index] = queue.weight
        return None  # pragma: no cover - reload always finds a queue


#: Arbitration policy name -> constructor.
ARBITERS = {
    "rr": RoundRobinArbiter,
    "wrr": WeightedRoundRobinArbiter,
}


class MultiQueueNvme:
    """The controller-facing bundle: tenant rings + one arbiter."""

    def __init__(self, arbitration: str = "wrr") -> None:
        factory = ARBITERS.get(arbitration)
        if factory is None:
            raise ValueError(
                f"unknown arbitration {arbitration!r}; choose from {sorted(ARBITERS)}"
            )
        self.arbitration = arbitration
        self.arbiter: Arbiter = factory()
        self.queues: list[TenantQueue] = []
        self._by_tenant: dict[str, TenantQueue] = {}
        #: Entries queued across ``queues``, kept by their push/pop.
        self._backlog = _Backlog()

    def add_queue(self, tenant: str, *, depth: int = 64, weight: int = 1) -> TenantQueue:
        if tenant in self._by_tenant:
            raise ValueError(f"duplicate tenant queue {tenant!r}")
        queue = TenantQueue(tenant, depth, weight=weight, backlog=self._backlog)
        self.queues.append(queue)
        self._by_tenant[tenant] = queue
        return queue

    @property
    def pending(self) -> int:
        return self._backlog.entries

    def submit(self, tenant: str, entry: object) -> None:
        """Push into the tenant's ring; raises :class:`QueueFull`."""
        self._by_tenant[tenant].push(entry)

    def fetch(self) -> tuple[str, object] | None:
        """Arbitrate and pop the next command; ``None`` if idle.

        An idle controller answers without asking its arbiter: a
        ``select`` over all-empty rings changes no arbiter state.
        """
        if not self._backlog.entries:
            return None
        index = self.arbiter.select(self.queues)
        if index is None:
            return None
        queue = self.queues[index]
        return queue.tenant, queue.pop()


__all__ = [
    "ARBITERS",
    "Arbiter",
    "MultiQueueNvme",
    "QueueFull",
    "RoundRobinArbiter",
    "TenantQueue",
    "WeightedRoundRobinArbiter",
]

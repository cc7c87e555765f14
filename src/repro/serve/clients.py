"""Closed- and open-loop client generators driving the serving layer.

A client turns a tenant's workload trace (any :class:`repro.workloads.
trace.Trace` op stream) into *timed submissions* on the event loop:

- :class:`ClosedLoopClient` models ``concurrency`` synchronous callers
  (threads) with optional think time: a new op is submitted only when
  one completes — the classic benchmark harness, self-throttling under
  load;
- :class:`OpenLoopClient` models independent arrivals at a fixed
  offered rate: a seeded Poisson process keeps submitting regardless
  of completions, which is what exposes tail-latency blowups a closed
  loop hides.

Clients never touch the storage system directly; they call the
``submit`` hook the server binds, and the server reports back through
``on_done`` so closed loops can issue their next op.
"""

from __future__ import annotations

import abc
import itertools
import random
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator

from repro.serve.engine import EventLoop
from repro.workloads.trace import Op, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.server import TenantSpec

#: Client modes accepted by :class:`~repro.serve.server.TenantSpec`.
CLOSED = "closed"
OPEN = "open"

#: Submission hook bound by the server: ``submit(op)``.
SubmitFn = Callable[[Op], None]


class Client(abc.ABC):
    """One tenant's request generator."""

    def __init__(self, trace: Trace, *, max_ops: int | None = None) -> None:
        ops: Iterator[Op] = trace.ops()
        if max_ops is not None:
            if max_ops <= 0:
                raise ValueError("max_ops must be positive")
            ops = itertools.islice(ops, max_ops)
        self._ops = ops
        self.issued = 0
        self.exhausted = False
        self._loop: EventLoop | None = None
        self._submit: SubmitFn | None = None

    def bind(self, loop: EventLoop, submit: SubmitFn) -> None:
        """Attach to the server's loop and submission hook."""
        self._loop = loop
        self._submit = submit

    def _next_op(self) -> Op | None:
        op = next(self._ops, None)
        if op is None:
            self.exhausted = True
            return None
        self.issued += 1
        return op

    @abc.abstractmethod
    def start(self) -> None:
        """Schedule the client's initial submissions (t = 0)."""

    def on_done(self, op: Op, completed: bool) -> None:
        """Server callback: ``op`` finished (or was shed)."""

    def on_rejected(self, op: Op, rejection: Exception) -> None:
        """Server callback: ``op`` was shed by admission control.

        The default treats a rejection like a (failed) completion so
        closed-loop clients keep issuing; override to model retries.
        """
        self.on_done(op, completed=False)


class ClosedLoopClient(Client):
    """``concurrency`` synchronous callers with optional think time."""

    def __init__(
        self,
        trace: Trace,
        *,
        concurrency: int = 8,
        think_ns: float = 0.0,
        max_ops: int | None = None,
    ) -> None:
        super().__init__(trace, max_ops=max_ops)
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if think_ns < 0:
            raise ValueError("think time must be non-negative")
        self.concurrency = concurrency
        self.think_ns = think_ns
        #: Ops drawn at a completion, waiting out their think time.
        self._thinking: deque[Op] = deque()

    def start(self) -> None:
        assert self._loop is not None and self._submit is not None
        for _ in range(self.concurrency):
            op = self._next_op()
            if op is None:
                break
            self._submit(op)

    def on_done(self, op: Op, completed: bool) -> None:
        assert self._loop is not None and self._submit is not None
        next_op = self._next_op()
        if next_op is None:
            return
        if self.think_ns > 0:
            # Same-instant think events fire in tie-break order, so each
            # one submits the oldest drawn op rather than its own: the
            # tenant's submission order stays the draw order.
            self._thinking.append(next_op)
            self._loop.schedule(self.think_ns, self._submit_oldest)
        else:
            self._submit(next_op)

    def _submit_oldest(self) -> None:
        assert self._submit is not None
        self._submit(self._thinking.popleft())


class OpenLoopClient(Client):
    """Seeded Poisson arrivals at ``rate_qps`` offered ops per second."""

    def __init__(
        self,
        trace: Trace,
        *,
        rate_qps: float,
        seed: int,
        max_ops: int | None = None,
    ) -> None:
        super().__init__(trace, max_ops=max_ops)
        if rate_qps <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate_qps = rate_qps
        self._rng = random.Random(seed)

    def _interarrival_ns(self) -> float:
        return self._rng.expovariate(self.rate_qps) * 1e9

    def start(self) -> None:
        assert self._loop is not None
        self._loop.schedule(self._interarrival_ns(), self._arrive)

    def _arrive(self) -> None:
        assert self._loop is not None and self._submit is not None
        op = self._next_op()
        if op is None:
            return
        self._submit(op)
        self._loop.schedule(self._interarrival_ns(), self._arrive)


def build_client(spec: "TenantSpec", index: int, seed: int) -> Client:
    """The client a tenant spec describes; ``index`` is its tenant slot.

    Open-loop tenants each get a distinct, deterministic arrival stream
    derived from the run ``seed`` and their slot, so a server and a
    cluster built from one config offer identical arrivals.
    """
    if spec.mode == CLOSED:
        return ClosedLoopClient(
            spec.trace,
            concurrency=spec.concurrency,
            think_ns=spec.think_ns,
            max_ops=spec.max_ops,
        )
    return OpenLoopClient(
        spec.trace,
        rate_qps=spec.rate_qps,
        seed=seed * 1_000_003 + index,
        max_ops=spec.max_ops,
    )


__all__ = [
    "CLOSED",
    "OPEN",
    "Client",
    "ClosedLoopClient",
    "OpenLoopClient",
    "SubmitFn",
    "build_client",
]

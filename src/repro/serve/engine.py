"""Deterministic virtual-time discrete-event engine for the serving layer.

The rest of the repository measures *costs* (stage traces folded into
the resource ledger); this module supplies the *timeline*: a seeded-
input, wall-clock-free event loop that interleaves many concurrent
requests against shared resources.  It generalizes the closed-loop
sweep that used to be hand-rolled inside ``repro.sim.queueing`` — the
:class:`PipelineSimulator` now runs on this loop, and the multi-tenant
server (:mod:`repro.serve.server`) schedules admissions, arbitration
and stage service through it.

Determinism contract
--------------------

- Events are ordered by ``(time_ns, tie, seq)`` where ``seq`` is a
  monotonically increasing schedule counter: simultaneous events fire
  in the order they were scheduled, never in hash or heap-rebalance
  order.  ``tie`` is 0 in normal operation; the perturbation harness
  (``tiebreak_seed``) fills it with seeded uniforms to *shuffle* the
  order of simultaneous events — a correct program's results must not
  change (see :mod:`repro.sim.perturb`).  The heap holds
  ``(time_ns, tie, seq, event)`` tuples; ``seq`` is unique, so the
  tuple compare never reaches the event object.
- Each virtual timestamp runs a *wave* (every event at that time) and
  then *settle passes*.  A settler runs in a pass only if it was woken
  (:meth:`EventLoop.add_settler` returns the ``wake`` handle) since it
  last ran, and woken settlers run in ascending registration order.  A
  settler woken at or before the pass's current position — including
  one that wakes itself — runs in the *next* pass.  That is exactly the
  call order of polling every settler on every pass and skipping the
  ones with nothing buffered, so the cost is proportional to the work
  while the order stays fixed at construction, tie-break independent.
  A component that buffers settle work without calling ``wake()``
  loses it; the runtime sanitizer (``REPRO_SANITIZE=1``) polls the
  un-woken settlers whenever a timestamp goes quiescent and raises
  :class:`~repro.sim.sanitize.SanitizeError` on such a lost wakeup.
- The loop never reads a wall clock and owns no RNG of consequence;
  any randomness (open-loop arrival processes) lives in the callers,
  which draw from seeded generators in event-callback order — itself
  deterministic.  The tie-break RNG only permutes same-timestamp
  ordering and is itself seeded.
- ``schedule`` rejects non-finite and negative delays: one NaN
  poisons every later timestamp.

Order independence is built in, not checked per access: contended
decisions wait for the settle phase, :class:`FifoResource` admits a
wave's arrivals by their stable keys (an unkeyed acquire while the
loop runs is a ``ValueError``), and the sanitizer catches a lost
wakeup.  Whether a whole program kept the contract is what
:func:`repro.sim.perturb.perturbed` checks: same result digest under
every seeded tie-break.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import deque
from typing import Callable

from repro.sim import sanitize


class ScheduledEvent:
    """Handle for a pending callback; ``cancel()`` to drop it."""

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self.callback = _noop


def _noop() -> None:
    return None


def _label(callback: Callable[[], None]) -> str:
    return getattr(callback, "__qualname__", None) or repr(callback)


class EventLoop:
    """A heap of virtual-time events; time only moves forward.

    ``now_ns`` is the virtual clock: it jumps from event to event and
    is only readable, never assignable, from callbacks.

    ``tiebreak_seed`` arms the perturbation mode: simultaneous events
    are ordered by a seeded uniform draw instead of schedule order, so
    a run's results provably do not lean on the tie-break.
    """

    def __init__(
        self,
        start_ns: float = 0.0,
        *,
        tiebreak_seed: int | None = None,
    ) -> None:
        if not math.isfinite(start_ns) or start_ns < 0:
            raise ValueError(f"loop cannot start at {start_ns!r}")
        self.now_ns = float(start_ns)
        self._heap: list[tuple[float, float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self.processed = 0
        self.running = False
        self._settlers: list[Callable[[], bool]] = []
        #: Per settler: woken since it last ran (queued to run).
        self._woken: list[bool] = []
        #: Woken settlers due in this (or the first coming) pass: a heap
        #: of registration indices, all above ``_settle_pos``.
        self._due: list[int] = []
        #: Woken at or before the running pass's position: next pass.
        self._next_pass: list[int] = []
        #: Index of the settler the current pass is at; -1 between passes.
        self._settle_pos = -1
        self._tiebreak = (
            random.Random(tiebreak_seed) if tiebreak_seed is not None else None
        )

    def add_settler(self, settler: Callable[[], bool]) -> Callable[[], None]:
        """Register a settle hook; returns its ``wake()`` handle.

        ``run`` processes each virtual timestamp in two phases: the
        *wave* drains every event at that time (in tie-break order),
        then settle passes run the woken settlers — in registration
        order, which is fixed at construction and therefore tie-break
        independent.  Deferring contended decisions (resource
        admission, ring arbitration) to the settle phase is what makes
        them order-independent: a settler sees the aggregate effect of
        the whole wave, never a tie-break-dependent prefix of it.

        The wake contract: a component calls ``wake()`` whenever it
        buffers work for its settler.  A settler runs once per pass it
        was woken for; one woken at or before the running pass's
        position (itself included) runs in the next pass, one woken
        later in the order still runs in this pass.  A settler returns
        whether it did any work; settle passes repeat until a pass does
        nothing and no same-time events remain.  Waking is idempotent
        until the settler runs, and a wake outside ``run`` takes effect
        at the first settle pass of the next run.
        """
        index = len(self._settlers)
        self._settlers.append(settler)
        self._woken.append(False)
        woken = self._woken
        due = self._due
        next_pass = self._next_pass

        def wake() -> None:
            if woken[index]:
                return
            woken[index] = True
            if index > self._settle_pos:
                heapq.heappush(due, index)
            else:
                next_pass.append(index)

        return wake

    def __len__(self) -> int:
        return sum(1 for *_, event in self._heap if not event.cancelled)

    def schedule(self, delay_ns: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback`` ``delay_ns`` virtual nanoseconds from now."""
        if not math.isfinite(delay_ns) or delay_ns < 0:
            raise ValueError(f"cannot schedule {delay_ns!r} ns ahead")
        return self.schedule_at(self.now_ns + delay_ns, callback)

    def schedule_at(self, time_ns: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback`` at absolute virtual time ``time_ns``."""
        # One chained compare rejects the past, +inf and NaN alike.
        if not self.now_ns <= time_ns < math.inf:
            if not math.isfinite(time_ns):
                raise ValueError(f"cannot schedule at {time_ns!r}")
            raise ValueError(
                f"cannot schedule into the past ({time_ns} < now {self.now_ns})"
            )
        event = ScheduledEvent(callback)
        tiebreak = self._tiebreak
        heapq.heappush(
            self._heap,
            (
                time_ns,
                tiebreak.random() if tiebreak is not None else 0.0,
                next(self._seq),
                event,
            ),
        )
        return event

    def run(self, until_ns: float | None = None) -> float:
        """Process events in ``(time, tie, seq)`` order; returns final time.

        Each virtual timestamp runs in two phases: the *wave* drains
        every event at that time (including events the wave itself
        schedules at the same time), then settle passes run the woken
        settlers until quiescent (see :meth:`add_settler` for the wake
        contract and the next-pass rule).  Settling may spawn new
        same-time events, which start another wave; time advances only
        when a timestamp is fully quiescent: a pass did no work and no
        event remains at the current time.

        With ``until_ns`` the loop stops *before* any event scheduled
        later than the horizon and parks the clock exactly there —
        callers measuring rates over a fixed window divide by a clean
        horizon, not by whenever the last event happened to land.
        """
        if until_ns is not None and until_ns < self.now_ns:
            raise ValueError(f"horizon {until_ns} is in the past (now {self.now_ns})")
        horizon_ns = math.inf if until_ns is None else until_ns
        check_wakeups = sanitize.active()
        heap = self._heap
        pop = heapq.heappop
        settlers = self._settlers
        woken = self._woken
        due = self._due
        next_pass = self._next_pass
        processed = self.processed
        self.running = True
        try:
            while heap:
                now_ns, _tie, _seq, head = heap[0]
                if head.cancelled:
                    pop(heap)
                    continue
                if now_ns > horizon_ns:
                    break
                self.now_ns = now_ns
                while True:
                    while heap:
                        head_ns, _tie, _seq, event = heap[0]
                        # Bit-exact equality IS the loop's definition of
                        # simultaneity: the (time, tie, seq) heap order uses
                        # the same comparison, so the wave groups exactly
                        # the events the tie-break could permute.
                        if head_ns != now_ns:
                            break
                        pop(heap)
                        if event.cancelled:
                            continue
                        processed += 1
                        event.callback()
                    if not settlers:
                        break
                    settled = False
                    while due:
                        index = pop(due)
                        self._settle_pos = index
                        woken[index] = False
                        if settlers[index]():
                            settled = True
                    self._settle_pos = -1
                    if next_pass:
                        for index in next_pass:
                            heapq.heappush(due, index)
                        next_pass.clear()
                    if settled:
                        continue
                    while heap and heap[0][3].cancelled:
                        pop(heap)
                    head_ns = heap[0][0] if heap else math.inf
                    # Same bit-exact simultaneity check as the wave above.
                    if head_ns != now_ns:
                        if check_wakeups:
                            self._check_lost_wakeups()
                        break
        finally:
            self.running = False
            self.processed = processed
            self._settle_pos = -1
        if until_ns is not None:
            self.now_ns = max(self.now_ns, until_ns)
        return self.now_ns

    def _check_lost_wakeups(self) -> None:
        """Sanitizer: no un-woken settler holds work at quiescence."""
        for index, settler in enumerate(self._settlers):
            if not self._woken[index] and settler():
                raise sanitize.SanitizeError(
                    f"lost wakeup: settler {_label(settler)} had buffered work at "
                    f"t={self.now_ns}ns but was never woken; call the wake() handle "
                    "add_settler returned whenever work is buffered"
                )


class FifoResource:
    """``servers`` identical servers with one FIFO queue (M/G/c style).

    Jobs are served in arrival order; a job begins the moment a server
    is idle and runs for its ``service_ns`` without preemption.  The
    completion callback receives the completion timestamp.  ``busy_ns``
    accumulates total service time — the same quantity the resource
    ledger calls "busy" — so utilization and bottleneck checks read
    straight off the resource.

    While the loop is running, ``acquire`` does not admit immediately:
    arrivals are buffered and the settle phase admits the buffer in
    ``(key, arrival)`` order.  Same-timestamp contenders therefore
    resolve by key, not by which event the tie-break ran first, so a
    wave acquire without a ``key`` is a ``ValueError``.  Outside
    ``run`` (seeding the loop before it starts) acquire admits
    synchronously in call order and ``key`` is optional.
    """

    __slots__ = (
        "loop",
        "servers",
        "name",
        "_idle",
        "_queue",
        "_pending",
        "busy_ns",
        "served",
        "_wake",
    )

    def __init__(self, loop: EventLoop, servers: int = 1, *, name: str = "") -> None:
        if servers <= 0:
            raise ValueError("a resource needs at least one server")
        self.loop = loop
        self.servers = servers
        self.name = name
        self._idle = servers
        self._queue: deque[tuple[float, Callable[[float], None]]] = deque()
        #: Wave arrivals awaiting settle, in arrival order: (key, service, done).
        self._pending: list[tuple[int, float, Callable[[float], None]]] = []
        self.busy_ns = 0.0
        self.served = 0
        self._wake = loop.add_settler(self._settle)

    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def in_service(self) -> int:
        return self.servers - self._idle

    def acquire(
        self,
        service_ns: float,
        done: Callable[[float], None],
        *,
        key: int | None = None,
    ) -> None:
        """Enqueue a job; ``done(end_ns)`` fires when service completes.

        ``key`` is the job's stable admission priority among
        same-timestamp arrivals (e.g. its dispatch sequence number):
        contenders are admitted in key order at settle time, so the
        outcome does not depend on event tie-breaks.  It is required
        while the loop is running.
        """
        # One chained compare rejects negatives, +inf and NaN alike.
        if not 0.0 <= service_ns < math.inf:
            raise ValueError(f"invalid service time {service_ns!r}")
        if self.loop.running:
            if key is None:
                label = self.name or f"fifo:{self.servers}"
                raise ValueError(
                    f"unkeyed acquire on FIFO {label!r} while the loop is running: "
                    "same-timestamp arrivals would be admitted in tie-break order; "
                    "pass a stable key"
                )
            self._pending.append((key, service_ns, done))
            self._wake()
            return
        self._admit(service_ns, done)

    def _admit(self, service_ns: float, done: Callable[[float], None]) -> None:
        if self._idle:
            self._start(service_ns, done)
        else:
            self._queue.append((service_ns, done))

    def _settle(self) -> bool:
        """Admit buffered wave arrivals in stable-key order."""
        batch = self._pending
        if not batch:
            return False
        self._pending = []
        if len(batch) > 1:
            # Stable sort: equal keys keep arrival order.
            batch.sort(key=lambda entry: entry[0])
        for _key, service_ns, done in batch:
            self._admit(service_ns, done)
        return True

    def _start(self, service_ns: float, done: Callable[[float], None]) -> None:
        self._idle -= 1
        self.busy_ns += service_ns
        self.served += 1
        loop = self.loop
        loop.schedule_at(loop.now_ns + service_ns, lambda: self._finish(done))

    def _finish(self, done: Callable[[float], None]) -> None:
        self._idle += 1
        if self._queue:
            next_service, next_done = self._queue.popleft()
            self._start(next_service, next_done)
        done(self.loop.now_ns)


__all__ = ["EventLoop", "FifoResource", "ScheduledEvent"]

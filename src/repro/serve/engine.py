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
  then *settle passes*.  A pass has two phases.  The *admission phase*
  admits every :class:`FifoResource`'s buffered arrivals in key order:
  it is settler 0, which every loop registers for itself and ``run``
  calls at the start of each pass that has arrivals, without a wake.
  Then the woken settlers run (:meth:`EventLoop.add_settler` returns
  the ``wake`` handle), in ascending registration order.  A settler
  woken at or before the pass's current position — including one that
  wakes itself — runs in the *next* pass, and so does the admission of
  an acquire made by a settler.  That is exactly the call order of
  polling every settler on every pass and skipping the ones with
  nothing buffered, so the cost is proportional to the work while the
  order stays fixed at construction, tie-break independent.  A
  timestamp ends as soon as a pass leaves nothing woken, nothing to
  admit and no event at the current time.
- A component that buffers settle work without calling ``wake()``
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

FIFO admission
--------------

A :class:`FifoResource` is ``servers`` identical servers behind one
FCFS queue, and it keeps no queue: it keeps the time each server next
falls free (a min-heap).  Admitting a job is the Lindley
(Kiefer–Wolfowitz for ``servers > 1``) recursion: the job starts at
``max(now, earliest free time)``, takes that server, and its
completion goes straight onto the event heap at ``start + service``.
Jobs admitted in FCFS order start in that order, so the completion
times are exactly those of an event-driven queue that starts the next
job when a server frees, and a stage hop costs one heap push and one
event.  One admission call per pass serves every FIFO of the loop.

Order independence is built in, not checked per access: contended
decisions wait for the settle phase, a :class:`FifoResource` admits a
wave's arrivals by their stable keys (an unkeyed acquire while the
loop runs is a ``ValueError``), and the sanitizer catches a lost
wakeup.  Whether a whole program kept the contract is what
:func:`repro.sim.perturb.perturbed` checks: same result digest under
every seeded tie-break.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
from operator import itemgetter
from typing import Callable

from repro.sim import sanitize


class ScheduledEvent(functools.partial):
    """Handle for a pending callback; ``cancel()`` to drop it.

    The event is a ``functools.partial`` of its callback — of
    ``done(end_ns)`` for a FIFO completion — so building and firing it
    runs no Python frame of the event's own.  ``cancelled`` is a class
    default that ``cancel`` shadows on the one instance.
    """

    __slots__ = ()
    cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


def _label(callback: Callable[[], None]) -> str:
    return getattr(callback, "__qualname__", None) or repr(callback)


_arrival_key = itemgetter(0)
_INF = math.inf


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
        self._heap: list[tuple[float, float, int, object]] = []
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
        #: Arrivals for the next admission phase: (key, fifo, service, done).
        self._arrivals: list[tuple[int, FifoResource, float, Callable[[float], None]]] = []
        self._tiebreak = (
            random.Random(tiebreak_seed) if tiebreak_seed is not None else None
        )
        # Admission is settler 0; ``run`` calls it at the start of every
        # settle pass that has arrivals, without a wake.  Registered like
        # any settler, it is polled by the sanitizer's lost-wakeup check
        # and seen by anything that wraps ``add_settler`` (a profiler).
        self.add_settler(_admission(self))

    def add_settler(self, settler: Callable[[], bool]) -> Callable[[], None]:
        """Register a settle hook; returns its ``wake()`` handle.

        ``run`` processes each virtual timestamp in two phases: the
        *wave* drains every event at that time (in tie-break order),
        then settle passes admit the FIFO arrivals (settler 0, which
        the loop registers for itself) and run the woken settlers — in
        registration order, which is fixed at construction and
        therefore tie-break independent.  Deferring
        contended decisions (resource admission, ring arbitration) to
        the settle phase is what makes them order-independent: a
        settler sees the aggregate effect of the whole wave, never a
        tie-break-dependent prefix of it.

        The wake contract: a component calls ``wake()`` whenever it
        buffers work for its settler.  A settler runs once per pass it
        was woken for; one woken at or before the running pass's
        position (itself included) runs in the next pass, one woken
        later in the order still runs in this pass.  Passes repeat
        while a settler is woken, a FIFO holds arrivals or an event is
        due at the current time.  Waking is idempotent until the
        settler runs, and a wake outside ``run`` takes effect at the
        first settle pass of the next run.  The return value says
        whether the settler did any work; only the sanitizer's
        lost-wakeup poll reads it.
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
        schedules at the same time), then settle passes — each one the
        FIFO admission phase followed by the woken settlers (see
        :meth:`add_settler` for the wake contract and the next-pass
        rule).  Settling may spawn new same-time events, which start
        another wave; time advances as soon as a pass leaves nothing
        woken, nothing to admit and no event at the current time.

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
        push = heapq.heappush
        settlers = self._settlers
        woken = self._woken
        due = self._due
        next_pass = self._next_pass
        arrivals = self._arrivals
        admit = settlers[0]
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
                    # Bit-exact equality IS the loop's definition of
                    # simultaneity: the (time, tie, seq) heap order uses
                    # the same comparison, so the wave groups exactly the
                    # events the tie-break could permute.
                    while heap and heap[0][0] == now_ns:
                        event = pop(heap)[3]
                        if not event.cancelled:
                            processed += 1
                            event()
                    if arrivals:
                        admit()
                    if due:
                        while due:
                            index = pop(due)
                            self._settle_pos = index
                            woken[index] = False
                            settlers[index]()
                        self._settle_pos = -1
                        if next_pass:
                            for index in next_pass:
                                push(due, index)
                            next_pass.clear()
                        if due or arrivals:
                            continue
                    if heap and heap[0][0] == now_ns:
                        continue
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


def _admission(loop: EventLoop) -> Callable[[], bool]:
    """The loop's admission settler: admit every buffered FIFO arrival.

    A stable sort on the key alone keeps each FIFO's arrivals in key
    order, equal keys in arrival order; FIFOs do not interact.  Each job
    starts on its FIFO's earliest-free server (the Lindley step) and its
    completion goes straight onto the event heap.
    """
    arrivals = loop._arrivals
    heap = loop._heap
    seq = loop._seq
    tiebreak = loop._tiebreak
    push = heapq.heappush
    take_server = heapq.heapreplace

    def admit() -> bool:
        if not arrivals:
            return False
        if len(arrivals) > 1:
            arrivals.sort(key=_arrival_key)
        now_ns = loop.now_ns
        for _key, fifo, service_ns, done in arrivals:
            # Lindley: start on the earliest-free server.
            free = fifo._free
            start_ns = free[0]
            if start_ns < now_ns:
                start_ns = now_ns
            end_ns = start_ns + service_ns
            take_server(free, end_ns)
            fifo.busy_ns += service_ns
            fifo.served += 1
            push(
                heap,
                (
                    end_ns,
                    tiebreak.random() if tiebreak is not None else 0.0,
                    next(seq),
                    ScheduledEvent(done, end_ns),
                ),
            )
        arrivals.clear()
        return True

    return admit


class FifoResource:
    """``servers`` identical servers with one FIFO queue (M/G/c style).

    Jobs are served in admission order; a job begins the moment a
    server is free and runs for its ``service_ns`` without preemption.
    The completion callback receives the completion timestamp.  The
    resource keeps each server's next free time instead of a queue:
    admission computes the job's start by the Lindley recursion and
    puts its completion on the event heap at once (see the module
    docstring).  ``busy_ns`` is the total service *admitted* — the
    demand replayed onto the resource, the quantity the resource ledger
    calls "busy" — so utilization and bottleneck checks read straight
    off the resource; ``served`` counts admitted jobs.  A run cut at a
    horizon (``run(until_ns)``) counts the whole service of every job
    admitted by then, queued or in service, so ``busy_ns / (servers *
    elapsed)`` can exceed 1 on an overloaded run.

    While the loop is running, ``acquire`` does not admit immediately:
    it buffers the arrival, and the next admission phase of the loop
    admits the buffer in ``(key, arrival)`` order — an acquire made
    during a settle pass is admitted at the start of the next pass.
    Same-timestamp contenders therefore resolve by key, not by which
    event the tie-break ran first, so a wave acquire without a ``key``
    is a ``ValueError``.  Outside ``run`` (seeding the loop before it
    starts) acquire admits synchronously in call order and ``key`` is
    optional.
    """

    __slots__ = ("loop", "servers", "name", "_free", "busy_ns", "served")

    def __init__(self, loop: EventLoop, servers: int = 1, *, name: str = "") -> None:
        if servers <= 0:
            raise ValueError("a resource needs at least one server")
        self.loop = loop
        self.servers = servers
        self.name = name
        #: When each server next falls free, a min-heap; a time at or
        #: before ``now`` means the server is idle.
        self._free = [0.0] * servers
        self.busy_ns = 0.0
        self.served = 0

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
        if not 0.0 <= service_ns < _INF:
            raise ValueError(f"invalid service time {service_ns!r}")
        loop = self.loop
        if loop.running:
            if key is None:
                label = self.name or f"fifo:{self.servers}"
                raise ValueError(
                    f"unkeyed acquire on FIFO {label!r} while the loop is running: "
                    "same-timestamp arrivals would be admitted in tie-break order; "
                    "pass a stable key"
                )
            loop._arrivals.append((key, self, service_ns, done))
            return
        # Before the run: admit at once, in call order, by the same
        # Lindley step as the loop's admission phase.
        free = self._free
        end_ns = max(free[0], loop.now_ns) + service_ns
        heapq.heapreplace(free, end_ns)
        self.busy_ns += service_ns
        self.served += 1
        loop.schedule_at(end_ns, functools.partial(done, end_ns))


__all__ = ["EventLoop", "FifoResource", "ScheduledEvent"]

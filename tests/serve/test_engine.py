"""Tests for the virtual-time event loop and FIFO resources."""

import functools
import heapq
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.engine import EventLoop, FifoResource
from repro.sim.sanitize import SanitizeError, SimSanitizer


def test_events_fire_in_time_order():
    loop = EventLoop()
    seen = []
    loop.schedule(30.0, lambda: seen.append("c"))
    loop.schedule(10.0, lambda: seen.append("a"))
    loop.schedule(20.0, lambda: seen.append("b"))
    end = loop.run()
    assert seen == ["a", "b", "c"]
    assert end == 30.0
    assert loop.processed == 3


def test_simultaneous_events_fire_in_schedule_order():
    loop = EventLoop()
    seen = []
    for tag in range(5):
        loop.schedule(7.0, lambda tag=tag: seen.append(tag))
    loop.run()
    assert seen == [0, 1, 2, 3, 4]


def test_callbacks_observe_their_own_timestamp():
    loop = EventLoop()
    stamps = []
    loop.schedule(5.0, lambda: stamps.append(loop.now_ns))
    loop.schedule(9.0, lambda: stamps.append(loop.now_ns))
    loop.run()
    assert stamps == [5.0, 9.0]


def test_callbacks_may_schedule_more_events():
    loop = EventLoop()
    seen = []

    def chain(depth):
        seen.append(loop.now_ns)
        if depth:
            loop.schedule(1.0, lambda: chain(depth - 1))

    loop.schedule(0.0, lambda: chain(3))
    loop.run()
    assert seen == [0.0, 1.0, 2.0, 3.0]


def test_schedule_rejects_bad_delays():
    loop = EventLoop()
    for delay in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            loop.schedule(delay, lambda: None)


def test_schedule_at_rejects_the_past():
    loop = EventLoop()
    loop.schedule(10.0, lambda: loop.schedule_at(5.0, lambda: None))
    with pytest.raises(ValueError):
        loop.run()


def test_loop_rejects_bad_start():
    with pytest.raises(ValueError):
        EventLoop(start_ns=-1.0)
    with pytest.raises(ValueError):
        EventLoop(start_ns=math.nan)


def test_cancelled_events_do_not_fire():
    loop = EventLoop()
    seen = []
    event = loop.schedule(5.0, lambda: seen.append("cancelled"))
    loop.schedule(6.0, lambda: seen.append("kept"))
    event.cancel()
    loop.run()
    assert seen == ["kept"]
    assert len(loop) == 0


def test_run_until_parks_clock_at_horizon():
    loop = EventLoop()
    seen = []
    loop.schedule(10.0, lambda: seen.append("early"))
    loop.schedule(100.0, lambda: seen.append("late"))
    end = loop.run(until_ns=50.0)
    assert seen == ["early"]
    assert end == 50.0
    assert loop.now_ns == 50.0
    # The late event is still pending and fires on a later run.
    loop.run()
    assert seen == ["early", "late"]


def test_run_until_rejects_past_horizon():
    loop = EventLoop()
    loop.schedule(10.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError):
        loop.run(until_ns=5.0)


def test_fifo_resource_serves_in_arrival_order():
    loop = EventLoop()
    resource = FifoResource(loop, 1, name="x")
    ends = []
    resource.acquire(10.0, lambda end: ends.append(("a", end)))
    resource.acquire(5.0, lambda end: ends.append(("b", end)))
    resource.acquire(1.0, lambda end: ends.append(("c", end)))
    loop.run()
    # Each job starts when the one before it ends: b waits for a, c for b.
    assert ends == [("a", 10.0), ("b", 15.0), ("c", 16.0)]
    assert resource.busy_ns == 16.0
    assert resource.served == 3


def test_fifo_resource_runs_servers_in_parallel():
    loop = EventLoop()
    resource = FifoResource(loop, 2)
    ends = []
    resource.acquire(10.0, lambda end: ends.append(end))
    resource.acquire(10.0, lambda end: ends.append(end))
    resource.acquire(10.0, lambda end: ends.append(end))
    loop.run()
    # Two start at t=0; the third waits for the first free server.
    assert ends == [10.0, 10.0, 20.0]


def test_busy_ns_counts_every_job_admitted_before_a_horizon():
    loop = EventLoop()
    resource = FifoResource(loop, 1)
    for key in range(3):
        loop.schedule(0.0, lambda key=key: resource.acquire(10.0, lambda end: None, key=key))
    loop.run(until_ns=15.0)
    # One job done, one in service, one queued: all three count, so the
    # utilization over the 15 ns window reads 2, not 1.
    assert (resource.busy_ns, resource.served) == (30.0, 3)
    assert resource.busy_ns / (resource.servers * loop.now_ns) == 2.0


def test_admission_runs_as_settler_zero_once_per_pass_with_arrivals(monkeypatch):
    registered = []
    calls = []
    original = EventLoop.add_settler

    def counting_add_settler(loop, settler):
        registered.append(settler)

        def counted():
            did_work = settler()
            if did_work:  # the sanitizer also polls it, finding nothing
                calls.append(loop.now_ns)
            return did_work

        return original(loop, counted)

    # A profiler that wraps ``add_settler`` sees the admission too.
    monkeypatch.setattr(EventLoop, "add_settler", counting_add_settler)
    loop = EventLoop()
    resource = FifoResource(loop, 1)
    assert len(registered) == 1
    for key, delay in enumerate((0.0, 0.0, 5.0)):
        loop.schedule(delay, lambda key=key: resource.acquire(1.0, lambda end: None, key=key))
    loop.run()
    # One admitting call per pass with arrivals: t=0 (two keys) and t=5.
    assert calls == [0.0, 5.0]


def test_fifo_resource_rejects_bad_service_times():
    loop = EventLoop()
    resource = FifoResource(loop)
    for service in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            resource.acquire(service, lambda end: None)
    with pytest.raises(ValueError):
        FifoResource(loop, 0)


def test_zero_service_completes_at_current_time():
    loop = EventLoop()
    resource = FifoResource(loop)
    ends = []
    resource.acquire(0.0, lambda end: ends.append(end))
    loop.run()
    assert ends == [0.0]


# --- FIFO admission against the event-driven reference -----------------


class _EventDrivenFifo:
    """Reference FIFO: a queue, a start and a finish event per job.

    The admission path the loop's Lindley phase replaced: one settler
    per FIFO admits buffered arrivals in key order, a job starts when a
    server is idle and its finish event starts the next queued job.
    """

    def __init__(self, loop, servers=1, *, name=""):
        self.loop = loop
        self.servers = servers
        self.name = name
        self._idle = servers
        self._queue = deque()
        self._pending = []
        self.busy_ns = 0.0
        self.served = 0
        self._wake = loop.add_settler(self._settle)

    def acquire(self, service_ns, done, *, key=None):
        if self.loop.running:
            self._pending.append((key, service_ns, done))
            self._wake()
        else:
            self._admit(service_ns, done)

    def _admit(self, service_ns, done):
        if self._idle:
            self._start(service_ns, done)
        else:
            self._queue.append((service_ns, done))

    def _settle(self):
        batch, self._pending = self._pending, []
        batch.sort(key=lambda entry: entry[0])
        for _key, service_ns, done in batch:
            self._admit(service_ns, done)
        return bool(batch)

    def _start(self, service_ns, done):
        self._idle -= 1
        self.busy_ns += service_ns
        self.served += 1
        self.loop.schedule(service_ns, lambda: self._finish(done))

    def _finish(self, done):
        self._idle += 1
        if self._queue:
            self._start(*self._queue.popleft())
        done(self.loop.now_ns)


#: One job: arrival time, service, source, key draw, and an optional
#: follow-up job (its service) that its completion acquires at once,
#: like a stage hop.
_jobs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 2.5, 4.0]),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 5.0),
        st.sampled_from(["event", "settler"]),
        st.integers(0, 20),
        st.none() | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0),
    ),
    min_size=1,
    max_size=12,
)


def _replay_fifo(make_fifo, servers, jobs, seed_jobs):
    """Run ``jobs`` through a FIFO from ``make_fifo``; its completions.

    Every job and follow-up has a distinct key fixed before the run, so
    admission order never depends on which same-time event ran first.
    The first ``seed_jobs`` jobs are acquired before the loop runs
    (unkeyed, in call order).  A ``"settler"`` job is acquired during a
    settle pass by a settler registered after the FIFO, an ``"event"``
    job by an event, during the wave.
    """
    loop = EventLoop()
    fifo = make_fifo(loop, servers, name="oracle")
    completions = []
    handed = []

    def job(key, follow_up=None):
        def done(end_ns):
            completions.append((key, end_ns))
            if follow_up is not None:
                fifo.acquire(follow_up, job(key + 1000), key=key + 1000)

        return done

    def settler():
        batch = handed[:]
        handed.clear()
        for service_ns, done, key in batch:
            fifo.acquire(service_ns, done, key=key)
        return bool(batch)

    wake = loop.add_settler(settler)

    def hand_to_settler(entry):
        handed.append(entry)
        wake()

    for position, (arrival_ns, service_ns, source, draw, follow_up) in enumerate(jobs):
        key = draw * 16 + position  # distinct, in random order
        done = job(key, follow_up)
        if position < seed_jobs:
            fifo.acquire(service_ns, done)
            continue
        if source == "event":
            event = functools.partial(fifo.acquire, service_ns, done, key=key)
        else:
            event = functools.partial(hand_to_settler, (service_ns, done, key))
        loop.schedule_at(arrival_ns, event)
    loop.run()
    return sorted(completions), fifo.busy_ns, fifo.served


@settings(max_examples=300, deadline=None)
@given(servers=st.integers(1, 4), jobs=_jobs, seed_jobs=st.integers(0, 2))
def test_fifo_admission_matches_the_event_driven_reference(servers, jobs, seed_jobs):
    expected = _replay_fifo(_EventDrivenFifo, servers, jobs, seed_jobs)
    assert _replay_fifo(FifoResource, servers, jobs, seed_jobs) == expected


def test_settle_pass_acquire_is_admitted_at_the_next_pass():
    """A settler's acquire waits for the next pass's admission phase.

    The wave's arrival (key 5) is admitted at the start of the first
    pass, before the settler that acquires with key 1 runs, so it is
    served first despite the larger key, whatever the registration
    order of settler and FIFO.
    """
    loop = EventLoop()
    ends = {}
    handed = []

    def settler():
        if not handed:
            return False
        fifo.acquire(handed.pop(), lambda end: ends.setdefault("settler", end), key=1)
        return True

    wake = loop.add_settler(settler)
    fifo = FifoResource(loop, 1, name="x")

    def arrive():
        fifo.acquire(10.0, lambda end: ends.setdefault("wave", end), key=5)
        handed.append(1.0)
        wake()

    loop.schedule(0.0, arrive)
    loop.run()
    assert ends == {"wave": 10.0, "settler": 11.0}


# --- wake-driven settlers ---------------------------------------------


def test_add_settler_returns_a_wake_handle_that_runs_the_settler_once(monkeypatch):
    # The sanitizer's lost-wakeup check polls un-woken settlers; this
    # test counts every call, so it runs with the sanitizer off.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    loop = EventLoop()
    calls = []

    def settler():
        calls.append(loop.now_ns)
        return True

    wake = loop.add_settler(settler)
    assert callable(wake)
    # Woken while the loop is idle: runs once, at the first settle pass.
    wake()
    wake()
    loop.schedule(3.0, lambda: None)
    loop.run()
    assert calls == [3.0]
    # Two wakes in one wave still run it once; an un-woken timestamp
    # never calls it.
    loop.schedule_at(5.0, wake)
    loop.schedule_at(5.0, wake)
    loop.schedule_at(9.0, lambda: None)
    loop.run()
    assert calls == [3.0, 5.0]


def test_sanitizer_reports_a_lost_wakeup():
    loop = EventLoop()
    buffered = []

    def forgetful_settler():
        if not buffered:
            return False
        buffered.clear()
        return True

    loop.add_settler(forgetful_settler)
    # Buffers settle work but never calls the wake handle.
    loop.schedule(1.0, lambda: buffered.append("job"))
    with SimSanitizer():
        with pytest.raises(SanitizeError, match="lost wakeup.*forgetful_settler"):
            loop.run()


class _PollAllLoop:
    """Reference loop: every settler polled on every settle pass."""

    def __init__(self):
        self.now_ns = 0.0
        self.processed = 0
        self._heap = []
        self._seq = 0
        self._settlers = []

    def add_settler(self, settler):
        self._settlers.append(settler)

    def schedule(self, delay_ns, callback):
        heapq.heappush(self._heap, (self.now_ns + delay_ns, self._seq, callback))
        self._seq += 1

    def run(self):
        heap = self._heap
        while heap:
            now_ns = heap[0][0]
            self.now_ns = now_ns
            while True:
                while heap and heap[0][0] == now_ns:
                    heapq.heappop(heap)[2]()
                    self.processed += 1
                settled = False
                for settler in self._settlers:
                    settled = settler() or settled
                if not settled and not (heap and heap[0][0] == now_ns):
                    break


def _actions(settlers):
    """A settler action: the settlers to hand work to (and wake), plus an
    optional event ``(delay_ns, targets)`` that hands work out later."""
    targets = st.lists(st.integers(0, settlers - 1), max_size=3)
    event = st.none() | st.tuples(st.sampled_from([0.0, 0.0, 1.0, 4.0]), targets)
    return st.tuples(targets, event)


@st.composite
def _settler_graphs(draw):
    settlers = draw(st.integers(1, 5))
    scripts = [
        draw(st.lists(_actions(settlers), max_size=4)) for _ in range(settlers)
    ]
    initial = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.0]),
                st.lists(st.integers(0, settlers - 1), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return settlers, scripts, initial


def _replay(loop, wake_handles, graph):
    """Run ``graph`` on ``loop``; returns the log of events and settler calls.

    A settler drains all the work handed to it and then performs the
    next action of its script, if any; a call with no work does nothing.
    """
    settlers, scripts, initial = graph
    log = []
    work = [0] * settlers
    cursor = [0] * settlers
    events = iter(range(10_000))

    def hand_out(targets):
        for target in targets:
            work[target] += 1
            wake_handles[target]()

    def schedule(delay_ns, targets):
        event_id = next(events)

        def fire():
            log.append(("event", event_id, loop.now_ns))
            hand_out(targets)

        loop.schedule(delay_ns, fire)

    def make_settler(index):
        def settler():
            log.append(("call", index, loop.now_ns, work[index] > 0))
            if not work[index]:
                return False
            work[index] = 0
            if cursor[index] < len(scripts[index]):
                targets, event = scripts[index][cursor[index]]
                cursor[index] += 1
                hand_out(targets)
                if event is not None:
                    schedule(*event)
            return True

        return settler

    for index in range(settlers):
        # The poll-all reference returns no handle; it needs no wakes.
        wake_handles[index] = loop.add_settler(make_settler(index)) or (lambda: None)
    for delay_ns, targets in initial:
        schedule(delay_ns, targets)
    loop.run()
    return log


@settings(max_examples=300, deadline=None)
@given(graph=_settler_graphs())
def test_wake_driven_settling_matches_a_poll_all_loop(graph):
    settlers = graph[0]
    reference = _PollAllLoop()
    expected = _replay(reference, [None] * settlers, graph)
    useful = [entry for entry in expected if entry[0] == "event" or entry[3]]
    # Same events in the same order, and exactly the reference's useful
    # settler calls in the same order: a woken settler always has work.
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_SANITIZE", raising=False)
        loop = EventLoop()
        assert _replay(loop, [None] * settlers, graph) == useful
    assert loop.processed == reference.processed
    # Under the sanitizer the lost-wakeup check also polls the un-woken
    # settlers at each quiescent timestamp: it finds nothing to report.
    with SimSanitizer():
        checked = _replay(EventLoop(), [None] * settlers, graph)
    assert [entry for entry in checked if entry[0] == "event" or entry[3]] == useful

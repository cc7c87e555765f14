"""Tests for the virtual-time event loop and FIFO resources."""

import heapq
import math

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
    assert resource.in_service == 1
    assert resource.queued == 2
    loop.run()
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

"""Tests for per-tenant NVMe submission rings and arbitration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.nvme_mq import (
    MultiQueueNvme,
    QueueFull,
    RoundRobinArbiter,
    TenantQueue,
    WeightedRoundRobinArbiter,
)


def _drain(mq):
    order = []
    while True:
        fetched = mq.fetch()
        if fetched is None:
            return order
        order.append(fetched[0])


def test_tenant_queue_is_a_real_ring():
    queue = TenantQueue("t", depth=8)
    for index in range(7):  # NVMe ring holds depth-1 entries
        queue.push(index)
    assert queue.full
    with pytest.raises(QueueFull):
        queue.push(99)
    assert queue.pop() == 0
    assert not queue.full
    assert queue.submitted == 7
    assert queue.fetched == 1


def test_tenant_queue_full_rejected():
    queue = TenantQueue("t", depth=4)
    for index in range(3):  # depth-1 usable slots
        queue.push(index)
    assert queue.full
    with pytest.raises(QueueFull):
        queue.push("overflow")


def test_tenant_queue_pops_in_fifo_order():
    queue = TenantQueue("t", depth=4)
    queue.push("a")
    queue.push("b")
    assert queue.pop() == "a"
    assert queue.pop() == "b"


def test_tenant_queue_wraps_past_its_depth():
    queue = TenantQueue("t", depth=4)
    for value in range(10):
        queue.push(value)
        assert queue.pop() == value
    assert len(queue.ring) == 0
    for value in range(3):  # still holds depth-1 after wrapping
        queue.push(value)
    assert queue.full


def test_tenant_queue_empty_pop_rejected():
    with pytest.raises(IndexError):
        TenantQueue("t", depth=4).pop()


def test_tenant_queue_rejects_bad_weight():
    with pytest.raises(ValueError):
        TenantQueue("t", weight=0)


def test_round_robin_alternates_between_busy_queues():
    mq = MultiQueueNvme("rr")
    mq.add_queue("a")
    mq.add_queue("b")
    for index in range(3):
        mq.submit("a", f"a{index}")
        mq.submit("b", f"b{index}")
    assert _drain(mq) == ["a", "b", "a", "b", "a", "b"]


def test_round_robin_skips_empty_queues():
    mq = MultiQueueNvme("rr")
    mq.add_queue("a")
    mq.add_queue("b")
    mq.submit("b", 1)
    mq.submit("b", 2)
    assert _drain(mq) == ["b", "b"]
    assert mq.fetch() is None


def test_wrr_respects_weights_over_a_round():
    mq = MultiQueueNvme("wrr")
    mq.add_queue("heavy", weight=2)
    mq.add_queue("light", weight=1)
    for index in range(4):
        mq.submit("heavy", index)
        mq.submit("light", index)
    order = _drain(mq)
    # Each credit round serves heavy twice, light once.
    assert order[:6] == ["heavy", "heavy", "light", "heavy", "heavy", "light"]


def test_wrr_is_work_conserving_when_one_queue_idles():
    mq = MultiQueueNvme("wrr")
    mq.add_queue("heavy", weight=3)
    mq.add_queue("light", weight=1)
    for index in range(4):
        mq.submit("light", index)
    # Heavy has credits but no commands: light is served immediately.
    assert _drain(mq) == ["light"] * 4


def test_wrr_weight_ratio_over_long_window():
    mq = MultiQueueNvme("wrr")
    mq.add_queue("heavy", depth=128, weight=4)
    mq.add_queue("light", depth=128, weight=1)
    for index in range(100):
        mq.submit("heavy", index)
        mq.submit("light", index)
    order = []
    for _ in range(50):
        order.append(mq.fetch()[0])
    ratio = order.count("heavy") / order.count("light")
    assert ratio == pytest.approx(4.0, rel=0.1)


def test_unknown_arbitration_rejected():
    with pytest.raises(ValueError):
        MultiQueueNvme("lottery")


def test_duplicate_tenant_rejected():
    mq = MultiQueueNvme()
    mq.add_queue("a")
    with pytest.raises(ValueError):
        mq.add_queue("a")


def test_pending_counts_all_rings():
    mq = MultiQueueNvme()
    mq.add_queue("a")
    mq.add_queue("b")
    mq.submit("a", 1)
    mq.submit("b", 2)
    mq.submit("b", 3)
    assert mq.pending == 3
    mq.fetch()
    assert mq.pending == 2


def test_arbiters_are_deterministic():
    def run(cls):
        arb = cls()
        queues = [TenantQueue("a", weight=2), TenantQueue("b", weight=1)]
        for queue in queues:
            for index in range(5):
                queue.push(index)
        picks = []
        while True:
            index = arb.select(queues)
            if index is None:
                return picks
            queues[index].pop()
            picks.append(index)

    assert run(RoundRobinArbiter) == run(RoundRobinArbiter)
    assert run(WeightedRoundRobinArbiter) == run(WeightedRoundRobinArbiter)


@pytest.mark.parametrize("arbitration", ["rr", "wrr"])
def test_pending_tracks_ring_lengths_through_a_seeded_sequence(arbitration):
    rng = random.Random(11)
    mq = MultiQueueNvme(arbitration)
    queues = [mq.add_queue(name, depth=8, weight=index + 1) for index, name in enumerate("abc")]
    for step in range(3_000):
        roll = rng.random()
        queue = rng.choice(queues)
        if roll < 0.3 and not queue.full:
            mq.submit(queue.tenant, step)
        elif roll < 0.55 and not queue.full:
            # The server pushes to its tenant ring directly.
            queue.push(step)
        elif roll < 0.7 and queue.ring:
            queue.pop()
        else:
            mq.fetch()
        assert mq.pending == sum(len(queue.ring) for queue in queues)


def test_idle_fetch_leaves_wrr_credits_untouched():
    mq = MultiQueueNvme("wrr")
    mq.add_queue("heavy", weight=3)
    mq.add_queue("light", weight=1)
    mq.submit("heavy", 1)
    mq.submit("light", 2)
    mq.fetch()
    mq.fetch()
    arbiter = mq.arbiter
    state = (list(arbiter._credits), arbiter._next)
    assert mq.pending == 0
    assert mq.fetch() is None
    assert (arbiter._credits, arbiter._next) == state
    # The same fetches after the idle one as without it.
    mq.submit("heavy", 3)
    mq.submit("light", 4)
    assert _drain(mq) == ["heavy", "light"]


# --- reference arbiters --------------------------------------------------


class _ScanningRoundRobin:
    """Reference RR: tests each ring's length, as the arbiter once did."""

    def __init__(self):
        self._next = 0

    def select(self, queues):
        count = len(queues)
        for step in range(count):
            index = (self._next + step) % count
            if len(queues[index].ring):
                self._next = (index + 1) % count
                return index
        return None


class _ScanningWeightedRoundRobin:
    """Reference WRR: an ``any(len(...))`` scan and a rebuilt credit list."""

    def __init__(self):
        self._credits = []
        self._next = 0

    def select(self, queues):
        count = len(queues)
        if len(self._credits) != count:
            self._credits = [queue.weight for queue in queues]
        for _ in range(2):
            for step in range(count):
                index = (self._next + step) % count
                if len(queues[index].ring) and self._credits[index] > 0:
                    self._credits[index] -= 1
                    self._next = index if self._credits[index] > 0 else (index + 1) % count
                    return index
            if not any(len(queue.ring) for queue in queues):
                return None
            self._credits = [queue.weight for queue in queues]
        return None


#: A script step: push one entry onto ring ``n`` (``("push", n)``) or
#: let the arbiter select and pop (``("select", 0)``).
_steps = st.lists(
    st.tuples(st.sampled_from(["push", "push", "select"]), st.integers(0, 3)), max_size=80
)


@pytest.mark.parametrize(
    ("arbiter", "reference"),
    [
        (RoundRobinArbiter, _ScanningRoundRobin),
        (WeightedRoundRobinArbiter, _ScanningWeightedRoundRobin),
    ],
)
@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.integers(1, 4), min_size=1, max_size=4), script=_steps)
def test_arbiter_order_matches_the_scanning_reference(arbiter, reference, weights, script):
    """Same picks as the length-scanning arbiters, on random push/pop scripts."""

    def replay(chooser):
        queues = [TenantQueue(f"t{index}", weight=w) for index, w in enumerate(weights)]
        picks = []
        for action, ring in script:
            if action == "push":
                queues[ring % len(queues)].push(len(picks))
                continue
            index = chooser.select(queues)
            picks.append(index)
            if index is not None:
                queues[index].pop()
        # Drain what is left, so every credit reload is reached.
        while (index := chooser.select(queues)) is not None:
            picks.append(index)
            queues[index].pop()
        return picks

    assert replay(arbiter()) == replay(reference())

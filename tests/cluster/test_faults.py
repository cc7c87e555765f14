"""Fault specs, seeded schedules, and injector timeline mechanics."""

import pytest

from repro.cluster.faults import (
    DIE_SLOWDOWN,
    FAULT_KINDS,
    LINK_DEGRADE,
    SERVER_STALL,
    FaultInjector,
    FaultSpec,
    seeded_fault_schedule,
)
from repro.serve.engine import EventLoop


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("meteor_strike", "s0", 0.0, 1.0)
    with pytest.raises(ValueError):
        FaultSpec(SERVER_STALL, "s0", -1.0, 1.0)
    with pytest.raises(ValueError):
        FaultSpec(SERVER_STALL, "s0", 0.0, 0.0)
    with pytest.raises(ValueError):
        FaultSpec(DIE_SLOWDOWN, "s0", 0.0, 1.0, die_slowdown_factor=0.5)
    with pytest.raises(ValueError):
        FaultSpec(LINK_DEGRADE, "s0", 0.0, 1.0, link_degrade_factor=0.5)
    with pytest.raises(ValueError):
        FaultSpec(SERVER_STALL, "s0", 0.0, 1.0, channel=-1)


def test_seeded_schedule_deterministic():
    kwargs = dict(servers=("s0", "s1"), horizon_ns=1e9, seed=9, faults=5)
    assert seeded_fault_schedule(**kwargs) == seeded_fault_schedule(**kwargs)
    assert seeded_fault_schedule(**kwargs) != seeded_fault_schedule(
        servers=("s0", "s1"), horizon_ns=1e9, seed=10, faults=5
    )


def test_seeded_schedule_bounds():
    schedule = seeded_fault_schedule(
        servers=("s0", "s1", "s2"), horizon_ns=1e9, seed=4, faults=20
    )
    assert len(schedule) == 20
    starts = [spec.start_ns for spec in schedule]
    assert starts == sorted(starts)
    for spec in schedule:
        assert spec.kind in FAULT_KINDS
        assert spec.server in ("s0", "s1", "s2")
        assert 0.0 <= spec.start_ns <= 0.6 * 1e9
        assert 0.05 * 1e9 <= spec.duration_ns <= 0.15 * 1e9
        if spec.kind == DIE_SLOWDOWN:
            assert spec.die_slowdown_factor >= 2.0
        if spec.kind == LINK_DEGRADE:
            assert spec.link_degrade_factor >= 1.5


def test_seeded_schedule_validation():
    with pytest.raises(ValueError):
        seeded_fault_schedule(servers=(), horizon_ns=1e9, seed=1)
    with pytest.raises(ValueError):
        seeded_fault_schedule(servers=("s0",), horizon_ns=0.0, seed=1)
    with pytest.raises(ValueError):
        seeded_fault_schedule(servers=("s0",), horizon_ns=1e9, seed=1, faults=-1)


class _StubNode:
    """Records the fault state the injector sets, like a StorageNode."""

    def __init__(self):
        self.transitions = []

    def set_faults(self, *, stalled, nand_factors, pcie_factor):
        self.transitions.append((stalled, nand_factors, pcie_factor))


def test_injector_fires_begin_and_end_in_order():
    loop = EventLoop()
    node = _StubNode()
    specs = (
        FaultSpec(SERVER_STALL, "s0", 100.0, 50.0),
        FaultSpec(LINK_DEGRADE, "s0", 120.0, 100.0, link_degrade_factor=2.0),
    )
    injector = FaultInjector(specs)
    injector.arm(loop, {"s0": node})
    loop.run()
    # Stall begins, link degrades, stall ends, link recovers.
    assert node.transitions == [
        (True, {}, 1.0),
        (True, {}, 2.0),
        (False, {}, 2.0),
        (False, {}, 1.0),
    ]
    times = [entry["time_ns"] for entry in injector.timeline_dict()]
    assert times == [100.0, 120.0, 150.0, 220.0]
    assert [entry["edge"] for entry in injector.timeline_dict()] == [
        "begin",
        "begin",
        "end",
        "end",
    ]


def test_injector_rejects_unknown_target():
    injector = FaultInjector((FaultSpec(SERVER_STALL, "ghost", 0.0, 1.0),))
    with pytest.raises(ValueError, match="unknown server"):
        injector.arm(EventLoop(), {"s0": _StubNode()})

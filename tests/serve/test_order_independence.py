"""Serving-layer order independence: tie-break perturbation tests."""

from __future__ import annotations

import pytest

from repro.serve.engine import EventLoop, FifoResource
from repro.serve.qos import TenantQoS, TokenBucket
from repro.serve.server import ServeConfig, TenantSpec, serve
from repro.sim.perturb import perturbed
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace

REQUESTS = 48


def _trace(seed: int):
    return synthetic_trace(
        SyntheticConfig(workload="E", requests=REQUESTS, file_size=1 << 20, seed=seed)
    )


def _config(**overrides) -> ServeConfig:
    defaults = dict(
        tenants=(
            TenantSpec(
                "heavy", _trace(11), qos=TenantQoS(weight=2), concurrency=8, max_ops=REQUESTS
            ),
            TenantSpec(
                "light", _trace(12), qos=TenantQoS(weight=1), concurrency=8, max_ops=REQUESTS
            ),
        ),
        system="pipette",
        arbitration="wrr",
        max_inflight=8,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


# --- the adversarial fixture ------------------------------------------


class _TokenOutcome:
    """Which tenant got the one token (the toy's whole result)."""

    def __init__(self, granted: dict[str, bool]) -> None:
        self.granted = granted

    def to_dict(self) -> dict:
        return {"granted": dict(self.granted)}


def _race_for_one_token(tiebreak_seed: int | None) -> _TokenOutcome:
    """Two same-time events, neither scheduled by the other, drain one
    shared 1-token bucket: whichever the tie-break runs first wins."""
    loop = EventLoop(tiebreak_seed=tiebreak_seed)
    bucket = TokenBucket(1000.0, 1)
    granted: dict[str, bool] = {}

    def take(tenant: str) -> None:
        granted[tenant] = bucket.take(loop.now_ns) is None

    loop.schedule(100.0, lambda: take("a"))
    loop.schedule(100.0, lambda: take("b"))
    loop.run()
    return _TokenOutcome(granted)


def test_two_same_timestamp_events_racing_on_one_bucket():
    """The deliberately order-dependent case perturbation must flag,
    naming the result leaf that moved."""
    report = perturbed(_race_for_one_token, tuple(range(1, 9)))
    assert not report.identical
    assert report.first is not None
    assert report.first.seed == report.drifted[0]
    assert report.first.path == "granted.a"
    assert (report.first.baseline, report.first.drifted) == (True, False)
    assert "first moved granted.a: True -> False" in report.render()


def test_unkeyed_fifo_contention_is_flagged():
    """A wave acquire without a stable key is rejected outright.

    Same-time unkeyed acquires would be admitted in tie-break order, so
    the first one raises before any contender exists, under any
    tie-break.
    """
    loop = EventLoop()
    stage = FifoResource(loop, 1, name="pcie")
    acquired: list[float] = []
    loop.schedule(50.0, lambda: stage.acquire(10.0, acquired.append))
    loop.schedule(50.0, lambda: stage.acquire(10.0, acquired.append))
    with pytest.raises(ValueError, match="unkeyed acquire on FIFO 'pcie'"):
        loop.run()
    assert loop.now_ns == 50.0 and acquired == [] and stage.served == 0


def test_keyed_fifo_contention_is_clean_and_order_independent():
    """Stable keys make same-time contention settle deterministically."""

    def run(tiebreak_seed: int | None) -> list[tuple[str, float]]:
        loop = EventLoop(tiebreak_seed=tiebreak_seed)
        stage = FifoResource(loop, 1, name="pcie")
        ends: list[tuple[str, float]] = []
        loop.schedule(
            50.0, lambda: stage.acquire(10.0, lambda end: ends.append(("a", end)), key=0)
        )
        loop.schedule(
            50.0, lambda: stage.acquire(20.0, lambda end: ends.append(("b", end)), key=1)
        )
        loop.run()
        return ends

    baseline = run(None)
    assert baseline == [("a", 60.0), ("b", 80.0)]
    for seed in range(1, 9):
        assert run(seed) == baseline


def test_scheduled_child_is_ordered_with_its_parent():
    """A same-time event runs after the event that scheduled it, under
    every tie-break: scheduling is the only order a wave guarantees."""

    def run(tiebreak_seed: int | None) -> list[str]:
        loop = EventLoop(tiebreak_seed=tiebreak_seed)
        order: list[str] = []

        def parent() -> None:
            order.append("parent")
            loop.schedule(0.0, lambda: order.append("child"))

        loop.schedule(100.0, parent)
        loop.schedule(100.0, lambda: order.append("sibling"))
        loop.run()
        return order

    for seed in (None, *range(1, 9)):
        order = run(seed)
        assert sorted(order) == ["child", "parent", "sibling"]
        assert order.index("parent") < order.index("child")


# --- the serving layer runs clean -------------------------------------


def test_serve_with_qos_knobs_is_tiebreak_independent():
    config = _config(
        tenants=(
            TenantSpec(
                "interactive",
                _trace(21),
                mode="open",
                rate_qps=20_000.0,
                qos=TenantQoS(weight=4),
                max_ops=REQUESTS,
            ),
            TenantSpec(
                "batch",
                _trace(22),
                concurrency=16,
                max_ops=REQUESTS,
                qos=TenantQoS(
                    weight=1,
                    rate_limit_qps=50_000.0,
                    burst=8,
                    queue_depth=16,
                    full_policy="shed",
                ),
            ),
        )
    )
    report = perturbed(lambda seed: serve(config, tiebreak_seed=seed), (1, 2, 3, 4))
    assert report.identical, report.render()


@pytest.mark.parametrize("arbitration", ["rr", "wrr"])
def test_same_instant_bucket_retries_are_tiebreak_independent(arbitration):
    """Two tenants with equal slow token buckets retry at the same
    instant whenever both wait for a token, so their ring pushes share
    a wave; only a settle-phase fetch keeps the arbiter, not the
    tie-break, deciding which tenant a free slot serves."""
    qos = TenantQoS(rate_limit_qps=5_000.0, burst=1)
    config = ServeConfig(
        tenants=tuple(
            TenantSpec(name, _trace(seed), qos=qos, concurrency=4, max_ops=32)
            for name, seed in (("a", 11), ("b", 12))
        ),
        system="pipette",
        arbitration=arbitration,
        max_inflight=2,
        seed=3,
    )
    report = perturbed(lambda seed: serve(config, tiebreak_seed=seed), (1, 2, 3, 4))
    assert report.identical, report.render()


# --- perturbation harness ---------------------------------------------


def test_perturbation_proves_tiebreak_independence():
    config = _config()
    report = perturbed(lambda seed: serve(config, tiebreak_seed=seed), tuple(range(1, 9)))
    assert len(report.digests) == 8
    assert report.identical, report.render()
    assert report.drifted == ()
    assert report.first is None
    assert "byte-identical" in report.render()


def test_serve_completes_every_request_under_every_tiebreak():
    """No tie-break order strands a request: each run completes them all."""
    config = _config()
    for seed in (None, 1, 2, 3):
        assert serve(config, tiebreak_seed=seed).total_completed == 2 * REQUESTS


def test_perturbed_run_still_matches_plain_serve():
    """A seeded shuffle changes the schedule, not the result."""
    plain = serve(_config()).to_dict()
    shuffled = serve(_config(), tiebreak_seed=3).to_dict()
    assert plain == shuffled

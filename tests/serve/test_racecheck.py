"""Serving-layer race detection + tie-break perturbation tests."""

from __future__ import annotations

import pytest

from repro.serve.engine import EventLoop, FifoResource
from repro.serve.qos import TenantQoS, TokenBucket
from repro.serve.server import ServeConfig, StorageServer, TenantSpec, serve
from repro.sim.racecheck import RaceChecker, RaceError, perturbed
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


def test_two_same_timestamp_events_racing_on_one_bucket():
    """The deliberately order-dependent case the detector must flag:

    two events at the same virtual nanosecond, neither scheduled by the
    other, both draining one shared token bucket — whichever runs first
    (pure tie-break) gets the last token.
    """
    checker = RaceChecker()
    loop = EventLoop(racecheck=checker)
    bucket = TokenBucket(1000.0, 1)
    bucket.racecheck = checker
    checker.track(bucket, "bucket:victim")
    outcomes: list[float | None] = []

    loop.schedule(100.0, lambda: outcomes.append(bucket.take(loop.now_ns)))
    loop.schedule(100.0, lambda: outcomes.append(bucket.take(loop.now_ns)))

    with pytest.raises(RaceError) as excinfo:
        loop.run()
    message = str(excinfo.value)
    assert "virtual-time race on 'bucket:victim'" in message
    # Both conflicting event stacks are in the report.
    assert "event A:" in message and "event B:" in message
    assert message.count("t=100ns") >= 2


def test_unkeyed_fifo_contention_is_flagged():
    """A wave acquire without a stable key is rejected outright.

    Same-time unkeyed acquires would be admitted in tie-break order, so
    the first one raises before any contender exists; no race checker
    is needed to see it.
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
        checker = RaceChecker()
        loop = EventLoop(racecheck=checker, tiebreak_seed=tiebreak_seed)
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
    """An event that schedules another is causally ordered with it."""
    checker = RaceChecker()
    loop = EventLoop(racecheck=checker)
    bucket = TokenBucket(1000.0, 4)
    bucket.racecheck = checker
    checker.track(bucket, "bucket")

    def parent() -> None:
        bucket.take(loop.now_ns)
        loop.schedule(0.0, child)  # same timestamp, but causally after

    def child() -> None:
        bucket.take(loop.now_ns)

    loop.schedule(100.0, parent)
    loop.run()
    assert not checker.races


# --- the serving layer runs clean -------------------------------------


def test_serve_runs_clean_under_racecheck():
    checker = RaceChecker()
    result = StorageServer(_config(), racecheck=checker).run()
    assert not checker.races
    assert checker.events_tracked > 0
    assert checker.accesses_checked > 0
    assert result.total_completed == 2 * REQUESTS


def test_serve_with_qos_knobs_runs_clean_under_racecheck():
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
    checker = RaceChecker()
    StorageServer(config, racecheck=checker).run()
    assert not checker.races


# --- perturbation harness ---------------------------------------------


def test_perturbation_proves_tiebreak_independence():
    config = _config()
    report = perturbed(lambda seed: serve(config, tiebreak_seed=seed), tuple(range(1, 9)))
    assert len(report.digests) == 8
    assert report.identical, report.render()
    assert report.drifted == ()
    assert "byte-identical" in report.render()


def test_perturbed_run_still_matches_plain_serve():
    """A seeded shuffle changes the schedule, not the result."""
    plain = serve(_config()).to_dict()
    shuffled = serve(_config(), tiebreak_seed=3).to_dict()
    assert plain == shuffled


def test_racecheck_env_var_attaches_checker(monkeypatch):
    monkeypatch.setenv("REPRO_RACECHECK", "1")
    server = StorageServer(_config())
    assert server.racecheck is not None
    monkeypatch.delenv("REPRO_RACECHECK")
    assert StorageServer(_config()).racecheck is None

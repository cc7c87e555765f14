"""Tests for token-bucket admission and the QoS contract dataclass."""

import math

import pytest

from repro.serve.qos import BLOCK, SHED, AdmissionRejected, TenantQoS, TokenBucket


def test_qos_defaults_are_valid():
    qos = TenantQoS()
    assert qos.weight == 1
    assert qos.rate_limit_qps is None
    assert qos.full_policy == BLOCK


@pytest.mark.parametrize(
    "kwargs",
    [
        {"weight": 0},
        {"rate_limit_qps": 0.0},
        {"rate_limit_qps": -5.0},
        {"rate_limit_qps": math.inf},
        {"burst": 0},
        {"full_policy": "explode"},
    ],
)
def test_qos_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        TenantQoS(**kwargs)


def test_ring_depth_must_be_power_of_two():
    with pytest.raises(ValueError):
        TenantQoS(queue_depth=3)
    with pytest.raises(ValueError):
        TenantQoS(queue_depth=1)
    assert TenantQoS(queue_depth=2).queue_depth == 2


def test_admission_rejected_carries_tenant_and_reason():
    error = AdmissionRejected("acme", "submission queue full")
    assert error.tenant == "acme"
    assert error.reason == "submission queue full"
    assert "acme" in str(error)
    assert isinstance(error, Exception)
    assert SHED == "shed"  # policy constants are part of the API


def test_bucket_starts_full_and_drains():
    bucket = TokenBucket(1000.0, 4)
    for _ in range(4):
        assert bucket.take(0.0) is None
    ready = bucket.take(0.0)
    assert ready is not None and ready > 0.0


def test_bucket_ready_time_is_exact():
    bucket = TokenBucket(1000.0, 1)  # 1 token per ms
    assert bucket.take(0.0) is None
    # Empty; next token exists exactly 1 ms later.
    assert bucket.take(0.0) == pytest.approx(1e6)
    assert bucket.take(1e6) is None


def test_bucket_refills_at_rate():
    bucket = TokenBucket(2000.0, 2)
    assert bucket.take(0.0) is None
    assert bucket.take(0.0) is None
    # 2000 qps = one token every 0.5 ms; after 1 ms two tokens exist.
    assert bucket.peek(1e6) == pytest.approx(2.0)


def test_bucket_never_exceeds_capacity():
    bucket = TokenBucket(1000.0, 3)
    assert bucket.peek(1e12) == 3.0  # a long idle period doesn't bank tokens


def test_bucket_enforces_long_run_rate():
    bucket = TokenBucket(1000.0, 5)
    granted = 0
    now = 0.0
    # Greedy caller: take whenever permitted over a 100 ms window.
    while now <= 100e6:
        ready = bucket.take(now)
        if ready is None:
            granted += 1
        else:
            now = ready
    # burst + rate * window = 5 + 1000 * 0.1
    assert granted <= 105
    assert granted >= 100


def test_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(0.0, 4)
    with pytest.raises(ValueError):
        TokenBucket(math.nan, 4)
    with pytest.raises(ValueError):
        TokenBucket(100.0, 0)

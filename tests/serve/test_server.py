"""Integration tests for the multi-tenant storage server.

These drive full serving runs (clients -> QoS -> NVMe rings -> system
-> stage pipeline) at small op counts, formalizing the acceptance
properties: determinism, WRR fairness under saturation, token-bucket
rate enforcement, queue-full policies, and sanitizer-clean execution
with many requests in flight.
"""

import json

import pytest

from repro.config import MIB
from repro.serve.qos import SHED, AdmissionRejected, TenantQoS
from repro.serve.server import ServeConfig, StorageServer, TenantSpec, serve
from repro.sim.sanitize import SimSanitizer
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace


def _trace(seed, requests=4_000, workload="E"):
    return synthetic_trace(
        SyntheticConfig(
            workload=workload, requests=requests, file_size=1 * MIB, seed=seed
        )
    )


def test_config_validation():
    spec = TenantSpec("t", _trace(1))
    with pytest.raises(ValueError):
        ServeConfig(tenants=())
    with pytest.raises(ValueError):
        ServeConfig(tenants=(spec, TenantSpec("t", _trace(2))))
    with pytest.raises(ValueError):
        ServeConfig(tenants=(spec,), arbitration="lottery")
    with pytest.raises(ValueError):
        ServeConfig(tenants=(spec,), max_inflight=0)
    with pytest.raises(ValueError):
        TenantSpec("t", _trace(1), mode="open")  # open loop needs a rate
    with pytest.raises(ValueError):
        TenantSpec("", _trace(1))


def test_conflicting_file_sizes_rejected():
    small = synthetic_trace(SyntheticConfig(requests=10, file_size=1 * MIB, seed=1))
    large = synthetic_trace(SyntheticConfig(requests=10, file_size=2 * MIB, seed=2))
    config = ServeConfig(
        tenants=(TenantSpec("a", small), TenantSpec("b", large)), system="block-io"
    )
    with pytest.raises(ValueError, match="conflicting sizes"):
        StorageServer(config)


def test_single_tenant_runs_to_completion():
    config = ServeConfig(
        tenants=(TenantSpec("solo", _trace(3), max_ops=200),),
        system="block-io",
        arbitration="rr",
    )
    result = serve(config)
    stats = result.tenant("solo")
    assert stats["submitted"] == 200
    assert stats["admitted"] == 200
    assert stats["completed"] == 200
    assert stats["shed"] == 0
    assert result.total_completed == 200
    assert result.elapsed_ns > 0
    assert result.total_qps > 0
    assert stats["p50_ns"] <= stats["p95_ns"] <= stats["p99_ns"] <= stats["max_ns"]


def test_same_config_and_seed_is_byte_identical():
    def run():
        config = ServeConfig(
            tenants=(
                TenantSpec("closed", _trace(10), concurrency=12, max_ops=300),
                TenantSpec(
                    "open", _trace(11), mode="open", rate_qps=2e5, max_ops=150
                ),
            ),
            system="pipette",
            arbitration="wrr",
            seed=42,
        )
        return serve(config).to_dict()

    first, second = run(), run()
    assert json.dumps(first, sort_keys=False) == json.dumps(second, sort_keys=False)


def test_different_seed_changes_open_loop_arrivals():
    def run(seed):
        config = ServeConfig(
            tenants=(
                TenantSpec("open", _trace(11), mode="open", rate_qps=2e5, max_ops=150),
            ),
            system="block-io",
            seed=seed,
        )
        return serve(config).to_dict()

    assert run(1) != run(2)


def test_wrr_weights_shape_throughput_under_saturation():
    def run(arbitration, heavy_weight):
        config = ServeConfig(
            tenants=(
                TenantSpec(
                    "heavy",
                    _trace(20),
                    qos=TenantQoS(weight=heavy_weight),
                    concurrency=32,
                ),
                TenantSpec("light", _trace(21), qos=TenantQoS(weight=1), concurrency=32),
            ),
            system="block-io",
            arbitration=arbitration,
            max_inflight=8,
            max_time_ns=10e6,
        )
        result = serve(config)
        return result.tenant("heavy")["completed"], result.tenant("light")["completed"]

    heavy, light = run("wrr", 2)
    assert light > 0
    assert heavy / light == pytest.approx(2.0, rel=0.10)

    heavy, light = run("rr", 2)  # plain RR ignores weights
    assert heavy / light == pytest.approx(1.0, rel=0.10)


def test_token_bucket_tenant_never_exceeds_rate():
    rate_qps = 50_000.0
    burst = 4
    horizon_ns = 10e6
    config = ServeConfig(
        tenants=(
            TenantSpec(
                "limited",
                _trace(30),
                qos=TenantQoS(rate_limit_qps=rate_qps, burst=burst),
                concurrency=32,
            ),
            TenantSpec("free", _trace(31), concurrency=32),
        ),
        system="block-io",
        max_inflight=8,
        max_time_ns=horizon_ns,
    )
    result = serve(config)
    limited = result.tenant("limited")
    bound = burst + rate_qps * horizon_ns / 1e9
    assert limited["completed"] <= bound
    assert limited["admitted"] <= bound
    assert limited["rate_delayed"] > 0  # the limiter actually engaged
    # The unthrottled tenant soaks up the released capacity.
    assert result.tenant("free")["completed"] > limited["completed"]


def test_shed_policy_rejects_with_typed_error():
    config = ServeConfig(
        tenants=(
            TenantSpec(
                "bursty",
                _trace(40),
                qos=TenantQoS(queue_depth=8, full_policy=SHED),
                concurrency=64,
                max_ops=200,
            ),
        ),
        system="block-io",
        max_inflight=2,
    )
    server = StorageServer(config)
    (state,) = server._tenants
    rejections = []
    original = state.client.on_rejected
    state.client.on_rejected = lambda op, rej: (rejections.append(rej), original(op, rej))
    result = server.run()
    stats = result.tenant("bursty")
    assert stats["shed"] > 0
    assert stats["completed"] + stats["shed"] == stats["submitted"] == 200
    assert len(rejections) == stats["shed"]
    assert all(isinstance(rej, AdmissionRejected) for rej in rejections)
    assert all(rej.tenant == "bursty" for rej in rejections)


def test_block_policy_backpressures_without_loss():
    config = ServeConfig(
        tenants=(
            TenantSpec(
                "patient",
                _trace(41),
                qos=TenantQoS(queue_depth=8),  # default full_policy: block
                concurrency=64,
                max_ops=200,
            ),
        ),
        system="block-io",
        max_inflight=2,
    )
    result = serve(config)
    stats = result.tenant("patient")
    assert stats["shed"] == 0
    assert stats["completed"] == stats["submitted"] == 200


def test_sanitizer_clean_with_many_requests_in_flight():
    config = ServeConfig(
        tenants=(
            TenantSpec("a", _trace(50), concurrency=12, max_ops=300),
            TenantSpec("b", _trace(51), concurrency=12, max_ops=300),
        ),
        system="pipette",
        arbitration="wrr",
        max_inflight=16,
    )
    with SimSanitizer():
        result = serve(config)
    # The acceptance bar: the ledger==trace-sums invariant held while
    # many requests were genuinely interleaved.
    assert result.max_inflight_observed >= 8
    assert result.total_completed == 600


def test_inflight_respects_device_slots():
    config = ServeConfig(
        tenants=(TenantSpec("t", _trace(60), concurrency=32, max_ops=200),),
        system="block-io",
        max_inflight=4,
    )
    result = serve(config)
    assert result.max_inflight_observed <= 4


def test_queue_delay_recorded_under_contention():
    config = ServeConfig(
        tenants=(TenantSpec("t", _trace(61), concurrency=32, max_ops=200),),
        system="block-io",
        max_inflight=2,
    )
    result = serve(config)
    assert result.tenant("t")["mean_queue_delay_ns"] > 0

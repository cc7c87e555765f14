"""Bench: serving throughput on each interconnect backend.

One multi-tenant serving run per registered backend; the virtual
requests/sec of each lands in ``results/BENCH_backend_matrix.json``
(written by the conftest terminal-summary hook) so fabric-level
throughput shifts are tracked artifacts, not just test assertions.
"""

import pytest

from repro.serve.qos import TenantQoS
from repro.serve.server import ServeConfig, TenantSpec, serve
from repro.ssd.fabric import available_backends
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace

from benchmarks.conftest import BACKEND_MATRIX_QPS

REQUESTS = 128


def _trace(seed: int):
    return synthetic_trace(
        SyntheticConfig(workload="E", requests=REQUESTS, file_size=1 << 20, seed=seed)
    )


def _config(backend: str) -> ServeConfig:
    return ServeConfig(
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
        backend=backend,
    )


@pytest.mark.parametrize("backend", available_backends())
def test_serving_throughput_per_backend(benchmark, backend):
    result = benchmark.pedantic(serve, args=(_config(backend),), rounds=1, iterations=1)
    assert result.backend == backend
    assert result.total_completed == 2 * REQUESTS
    BACKEND_MATRIX_QPS[backend] = result.total_qps
    benchmark.extra_info["virtual_qps"] = result.total_qps

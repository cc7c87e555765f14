"""Serving layer on the new interconnect backends.

Wires the existing tie-break perturbation harness (and the determinism
digest it rides on) across the ``cxl_lmb`` and ``nvme_fdp`` backends:
a fabric swap must not introduce any dependence on the arbitrary
ordering of same-timestamp events.
"""

from __future__ import annotations

import pytest

from repro.serve.qos import TenantQoS
from repro.serve.server import ServeConfig, TenantSpec, serve
from repro.sim.perturb import perturbed
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace

REQUESTS = 32


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


def test_backend_flows_from_serve_config_to_result():
    result = serve(_config(backend="cxl_lmb"))
    assert result.backend == "cxl_lmb"
    assert result.to_dict()["backend"] == "cxl_lmb"
    assert result.total_completed == 2 * REQUESTS


def test_default_backend_is_pcie_gen3():
    result = serve(_config())
    assert result.backend == "pcie_gen3"


@pytest.mark.parametrize("backend", ["cxl_lmb", "nvme_fdp"])
def test_new_backends_complete_every_request(backend):
    result = serve(_config(backend=backend))
    assert result.backend == backend
    assert result.total_completed == 2 * REQUESTS


@pytest.mark.parametrize("backend", ["cxl_lmb", "nvme_fdp"])
def test_new_backends_are_tiebreak_independent(backend):
    config = _config(backend=backend)
    report = perturbed(lambda seed: serve(config, tiebreak_seed=seed), (1, 2, 3, 4))
    assert report.identical, report.render()


@pytest.mark.parametrize("backend", ["pcie_gen3", "cxl_lmb", "nvme_fdp"])
def test_serving_is_deterministic_per_backend(backend):
    first = serve(_config(backend=backend)).to_dict()
    second = serve(_config(backend=backend)).to_dict()
    assert first == second


def test_cxl_serving_is_faster_than_pcie():
    """Sanity on the fabric swap: dropping the per-request fault and
    mapping costs must not make the served tenants slower."""
    pcie = serve(_config(backend="pcie_gen3"))
    cxl = serve(_config(backend="cxl_lmb"))
    for tenant in ("heavy", "light"):
        assert cxl.tenant(tenant)["mean_latency_ns"] <= pcie.tenant(tenant)["mean_latency_ns"]

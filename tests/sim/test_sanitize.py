"""Runtime sanitizer activation and the invariants that hold without it."""

from __future__ import annotations

import pytest

from repro.sim import sanitize
from repro.sim.resources import ResourceModel
from repro.sim.sanitize import SanitizeError, SimSanitizer
from repro.sim.trace import Tracer
from tests.conftest import make_open_file, small_sim_config


def test_context_manager_toggles_activation(monkeypatch) -> None:
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize.active()
    with SimSanitizer():
        assert sanitize.active()
        with SimSanitizer():  # nests
            assert sanitize.active()
        assert sanitize.active()
    assert not sanitize.active()


def test_env_var_activates(monkeypatch) -> None:
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize.active()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitize.active()


def test_end_without_begin_raises() -> None:
    with pytest.raises(SanitizeError, match="without a matching begin"):
        Tracer(ResourceModel()).end()


def test_clean_request_passes() -> None:
    resources = ResourceModel(channels=2)
    tracer = Tracer(resources)
    with SimSanitizer():
        tracer.begin("read")
        tracer.host("fine_stack", 10.0)
        tracer.channel(1, "tR", 50.0)
        tracer.pcie("xfer", 5.0)
        with tracer.detached("writeback"):
            tracer.pcie("flush", 3.0)
        trace = tracer.end()
    # channel() stages are off the QD-1 path by default; host + pcie remain.
    assert trace.latency_ns() == 15.0
    demand = trace.demand()
    assert (demand.host_ns, demand.nand_ns, demand.channel, demand.pcie_ns) == (
        10.0,
        50.0,
        1,
        5.0,
    )
    # The detached flush still occupied the link.
    assert resources.pcie_busy_ns == 8.0


def test_nan_and_negative_stage_durations_rejected() -> None:
    tracer = Tracer(ResourceModel())
    with pytest.raises(ValueError, match="non-finite"):
        tracer.host("bad", float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        tracer.host("bad", float("inf"))
    with pytest.raises(ValueError, match="negative"):
        tracer.host("bad", -1.0)
    assert tracer.ambient.stages == []


def test_full_system_runs_sanitized() -> None:
    from repro.system import build_system

    with SimSanitizer():
        system = build_system("pipette", small_sim_config())
        fd = make_open_file(system)
        for offset in range(0, 4096, 512):
            system.read(fd, offset, 64)
        system.write(fd, 0, b"x" * 128)
        system.read(fd, 0, 64)
    assert system.reads == 9

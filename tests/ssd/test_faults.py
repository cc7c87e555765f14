"""Failure-injection tests: transient NAND read faults and recovery."""

import dataclasses

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.ssd.device import SSDDevice
from repro.ssd.faults import FaultModel, NandReadError
from repro.system import build_system


def make_config(rate: float, retries: int = 3, seed: int = 1) -> SimConfig:
    return SimConfig(
        ssd=SSDSpec(capacity_bytes=64 * MIB, mapping_region_bytes=2 * MIB),
        cache=CacheConfig(shared_memory_bytes=MIB, fgrc_bytes=512 * 1024),
        faults=FaultModel(read_fault_rate=rate, max_retries=retries, seed=seed),
    )


def test_fault_model_deterministic():
    model = FaultModel(read_fault_rate=0.3, seed=5)
    first = [model.attempt_fails(ppn, 0) for ppn in range(200)]
    second = [model.attempt_fails(ppn, 0) for ppn in range(200)]
    assert first == second
    assert any(first) and not all(first)


def test_fault_rate_roughly_respected():
    model = FaultModel(read_fault_rate=0.25, seed=7)
    failures = sum(model.attempt_fails(ppn, 0) for ppn in range(20_000))
    assert failures == pytest.approx(5000, rel=0.1)


def test_attempts_needed_counts_retries():
    model = FaultModel(read_fault_rate=0.3, max_retries=16, seed=3)
    attempts = [model.attempts_needed(ppn) for ppn in range(500)]
    assert min(attempts) == 1
    assert max(attempts) > 1  # some pages needed retries


def test_hard_failure_raises():
    model = FaultModel(read_fault_rate=0.9, max_retries=1, seed=11)
    with pytest.raises(NandReadError):
        for ppn in range(2000):
            model.attempts_needed(ppn)


def test_disabled_injector_never_fails():
    model = FaultModel()
    assert not model.enabled
    assert all(model.attempts_needed(ppn) == 1 for ppn in range(100))


def test_validation():
    with pytest.raises(ValueError):
        FaultModel(read_fault_rate=1.0)
    with pytest.raises(ValueError):
        FaultModel(max_retries=-1)


def test_retries_slow_down_reads_but_stay_correct():
    clean_device = SSDDevice(make_config(0.0))
    faulty_device = SSDDevice(make_config(0.2, retries=10))
    clean = clean_device.block_read([0, 1, 2, 3, 4, 5, 6, 7])
    faulty = faulty_device.block_read([0, 1, 2, 3, 4, 5, 6, 7])
    assert faulty == clean  # data recovered exactly
    assert faulty_device.controller.read_retries > 0
    assert faulty_device.resources.nand_total_ns > clean_device.resources.nand_total_ns


def test_end_to_end_reads_survive_transient_faults():
    config = make_config(0.3, retries=10)
    for name in ("block-io", "pipette", "2b-ssd-dma"):
        system = build_system(name, config)
        system.create_file("/f.bin", 1 * MIB)
        fd = system.open("/f.bin", O_RDWR | O_FINE_GRAINED)
        reference = build_system(name, make_config(0.0))
        reference.create_file("/f.bin", 1 * MIB)
        ref_fd = reference.open("/f.bin", O_RDWR | O_FINE_GRAINED)
        for offset in range(0, 128 * 1024, 8192):
            assert system.read(fd, offset, 64) == reference.read(ref_fd, offset, 64)
        assert system.device.controller.read_retries > 0, name


def test_uncorrectable_fault_propagates_to_host():
    config = make_config(0.95, retries=1, seed=2)
    system = build_system("pipette", config)
    system.create_file("/f.bin", 1 * MIB)
    fd = system.open("/f.bin", O_RDWR | O_FINE_GRAINED)
    with pytest.raises(NandReadError):
        for offset in range(0, 256 * 1024, 4096):
            system.read(fd, offset, 64)


def test_fault_latency_visible_in_metrics():
    config = make_config(0.3, retries=10, seed=9)
    system = build_system("pipette-nocache", config)
    system.create_file("/f.bin", 1 * MIB)
    fd = system.open("/f.bin", O_RDWR | O_FINE_GRAINED)
    clean = build_system("pipette-nocache", make_config(0.0))
    clean.create_file("/f.bin", 1 * MIB)
    clean_fd = clean.open("/f.bin", O_RDWR | O_FINE_GRAINED)
    for offset in range(0, 64 * 4096, 4096):
        system.read(fd, offset, 64)
        clean.read(clean_fd, offset, 64)
    assert system.latency.mean_ns() > clean.latency.mean_ns()

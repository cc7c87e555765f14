"""Tests for the Pipette-over-CMB ablation variant."""

import pytest

from repro.system import available_systems, build_system

from tests.conftest import make_open_file, read_latency_ns, small_sim_config


@pytest.fixture
def cmb_system():
    return build_system("pipette-cmb", small_sim_config())


def test_registered():
    assert "pipette-cmb" in available_systems()


def test_data_correctness(cmb_system):
    reference = build_system("block-io", small_sim_config())
    ref_fd = make_open_file(reference)
    fd = make_open_file(cmb_system)
    for offset, size in [(0, 8), (1000, 128), (4090, 20)]:
        assert cmb_system.read(fd, offset, size) == reference.read(ref_fd, offset, size)


def test_hits_identical_to_hmb_variant(cmb_system):
    hmb = build_system("pipette", small_sim_config())
    fd_c = make_open_file(cmb_system)
    fd_h = make_open_file(hmb)
    warm = []
    for system, fd in ((cmb_system, fd_c), (hmb, fd_h)):
        system.read(fd, 1000, 128)
        warm.append(read_latency_ns(system, fd, 1000, 128))
    assert cmb_system.cache.counter.hits == hmb.cache.counter.hits == 1
    # Warm hits cost the same in both variants.
    assert warm[0] == pytest.approx(warm[1])


def test_miss_pays_per_access_mapping(cmb_system):
    hmb = build_system("pipette", small_sim_config())
    fd_c = make_open_file(cmb_system)
    fd_h = make_open_file(hmb)
    gap = read_latency_ns(cmb_system, fd_c, 0, 128) - read_latency_ns(hmb, fd_h, 0, 128)
    assert gap >= cmb_system.config.timing.dma_map_ns * 0.9


def test_mappings_counted_per_miss(cmb_system):
    fd = make_open_file(cmb_system)
    cmb_system.read(fd, 0, 64)  # miss -> one mapping
    cmb_system.read(fd, 0, 64)  # hit -> no mapping
    cmb_system.read(fd, 640, 64)  # miss -> second mapping
    # One persistent mapping from enable_hmb() plus two per-miss ones.
    assert cmb_system.device.link.mappings_created == 3


def test_traffic_still_demanded_bytes_only(cmb_system):
    fd = make_open_file(cmb_system)
    cmb_system.read(fd, 0, 100)
    assert cmb_system.device.traffic.device_to_host_bytes == 100

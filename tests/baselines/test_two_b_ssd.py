"""Tests for the 2B-SSD baselines (MMIO and DMA modes)."""

import pytest

from repro.system import build_system

from tests.conftest import make_open_file, read_latency_ns, small_sim_config


@pytest.fixture
def mmio():
    return build_system("2b-ssd-mmio", small_sim_config())


@pytest.fixture
def dma():
    return build_system("2b-ssd-dma", small_sim_config())


def test_traffic_is_exactly_demanded_bytes(mmio, dma):
    for system in (mmio, dma):
        fd = make_open_file(system)
        system.read(fd, 100, 28)
        system.read(fd, 5000, 300)
        assert system.device.traffic.device_to_host_bytes == 328


def test_no_caching_every_read_hits_flash(dma):
    fd = make_open_file(dma)
    dma.read(fd, 100, 28)
    sensed = dma.device.controller.pages_sensed
    dma.read(fd, 100, 28)
    assert dma.device.controller.pages_sensed == 2 * sensed


def test_mmio_latency_grows_with_size(mmio):
    fd = make_open_file(mmio)
    small = read_latency_ns(mmio, fd, 0, 8)
    large = read_latency_ns(mmio, fd, 100_000, 4095)
    assert large > small + 50_000


def test_dma_latency_flat_with_size(dma):
    fd = make_open_file(dma)
    small = read_latency_ns(dma, fd, 0, 8)
    large = read_latency_ns(dma, fd, 100_000, 2048)
    assert abs(large - small) < 2_000  # only the link transfer differs


def test_dma_pays_per_access_mapping(dma):
    fd = make_open_file(dma)
    dma.read(fd, 0, 8)
    dma.read(fd, 64, 8)
    assert dma.device.link.mappings_created == 2


def test_mmio_pays_page_fault_per_access(mmio):
    fd = make_open_file(mmio)
    mmio.read(fd, 0, 8)
    mmio.read(fd, 64, 8)
    assert mmio.device.link.faults_taken == 2


def test_dma_slower_than_mmio_for_tiny_reads(mmio, dma):
    fd_m = make_open_file(mmio)
    fd_d = make_open_file(dma)
    assert read_latency_ns(dma, fd_d, 0, 8) > read_latency_ns(mmio, fd_m, 0, 8)


def test_mmio_slower_than_dma_for_big_reads(mmio, dma):
    fd_m = make_open_file(mmio)
    fd_d = make_open_file(dma)
    assert read_latency_ns(mmio, fd_m, 0, 2048) > read_latency_ns(dma, fd_d, 0, 2048)


def test_data_correctness_both_modes(mmio, dma):
    reference = build_system("block-io", small_sim_config())
    ref_fd = make_open_file(reference)
    for system in (mmio, dma):
        fd = make_open_file(system)
        for offset, size in [(0, 8), (1000, 128), (4090, 20)]:
            assert system.read(fd, offset, size) == reference.read(ref_fd, offset, size)


def test_write_visible_to_subsequent_reads(dma):
    fd = make_open_file(dma)
    dma.write(fd, 500, b"updated")
    assert dma.read(fd, 500, 7) == b"updated"


def test_pages_staged_in_cmb(mmio):
    fd = make_open_file(mmio)
    sensed = mmio.device.controller.pages_sensed
    mmio.read(fd, 0, 8)
    assert mmio.device.controller.pages_sensed - sensed == 1
    mmio.read(fd, 4090, 20)  # crosses a page boundary
    assert mmio.device.controller.pages_sensed - sensed == 3

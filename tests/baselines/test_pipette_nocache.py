"""Tests for the Pipette-without-cache configuration."""

from repro.system import build_system

from tests.conftest import make_open_file, read_latency_ns, small_sim_config


def make():
    return build_system("pipette-nocache", small_sim_config())


def test_hmb_mapping_established_at_init():
    system = make()
    assert system.device.link.map_established
    assert system.device.link.mappings_created == 1


def test_no_per_access_mapping_cost():
    system = make()
    fd = make_open_file(system)
    system.read(fd, 0, 128)
    system.read(fd, 300, 128)
    # Still only the persistent mapping from initialization.
    assert system.device.link.mappings_created == 1


def test_traffic_is_demanded_bytes():
    system = make()
    fd = make_open_file(system)
    system.read(fd, 0, 100)
    system.read(fd, 9000, 60)
    assert system.device.traffic.device_to_host_bytes == 160


def test_every_read_goes_to_flash():
    system = make()
    fd = make_open_file(system)
    system.read(fd, 0, 128)
    system.read(fd, 0, 128)
    assert system.device.controller.pages_sensed == 2


def test_faster_than_2b_ssd_dma():
    nocache = make()
    dma = build_system("2b-ssd-dma", small_sim_config())
    fd_n = make_open_file(nocache)
    fd_d = make_open_file(dma)
    gap = read_latency_ns(dma, fd_d, 0, 128) - read_latency_ns(nocache, fd_n, 0, 128)
    # Paper: the per-access DMA mapping costs 2B-SSD DMA 21.79-25.06 us.
    assert 15_000 < gap < 40_000


def test_data_correctness():
    system = make()
    reference = build_system("block-io", small_sim_config())
    fd = make_open_file(system)
    ref_fd = make_open_file(reference)
    for offset, size in [(5, 8), (2000, 500), (8190, 10)]:
        assert system.read(fd, offset, size) == reference.read(ref_fd, offset, size)


def test_write_roundtrip():
    system = make()
    fd = make_open_file(system)
    system.write(fd, 4000, b"xyz")
    assert system.read(fd, 4000, 3) == b"xyz"

"""Edge-case tests of the framework plumbing."""

import dataclasses

import pytest

from repro.core.read_cache.info_area import InfoArea, InfoRecord
from repro.system import build_system

from tests.conftest import make_open_file, small_sim_config


def test_info_ring_refills_after_wraparound():
    """The ring's head/tail chase each other through many misses."""
    system = build_system("pipette", small_sim_config())
    fd = make_open_file(system)
    capacity = system.cache.info_area.capacity
    for index in range(capacity * 2):
        system.read(fd, (index * 4096 + 128) % (1024 * 1024 - 256), 64)
    # Every produced record was consumed by the engine (drained ring).
    assert system.cache.info_area.in_flight == 0
    assert system.cache.info_area.produced >= capacity


def test_fine_read_spanning_pages_uses_single_command():
    system = build_system("pipette", small_sim_config())
    fd = make_open_file(system)
    before = system.engine.commands_handled
    data = system.read(fd, 4096 - 10, 20)  # crosses a page boundary
    assert data is not None and len(data) == 20
    assert system.engine.commands_handled == before + 1
    # Two pages sensed, one command, 20 bytes of traffic.
    assert system.device.traffic.device_to_host_bytes == 20


def test_fgrc_untouched_by_block_path_traffic():
    system = build_system("pipette", small_sim_config())
    fd = make_open_file(system)
    system.read(fd, 0, 8192)  # block path
    assert system.cache.counter.accesses == 0
    assert system.cache.info_area.produced == 0


def test_invalidation_spanning_page_boundary():
    system = build_system("pipette", small_sim_config())
    fd = make_open_file(system)
    system.read(fd, 4090, 16)  # cached item crossing pages 0/1
    system.read(fd, 4090, 16)
    assert system.cache.counter.hits == 1
    system.write(fd, 4095, b"!!")
    data = system.read(fd, 4090, 16)
    assert data[5:7] == b"!!"


def test_zero_and_negative_reads_rejected():
    system = build_system("pipette", small_sim_config())
    fd = make_open_file(system)
    with pytest.raises(ValueError):
        system.read(fd, 0, 0)
    with pytest.raises(ValueError):
        system.read(fd, -5, 10)


def test_eof_straddling_fine_read_rejected():
    system = build_system("pipette", small_sim_config())
    fd = make_open_file(system, size=10_000)
    with pytest.raises(ValueError):
        system.read(fd, 9_990, 64)


def test_many_files_each_get_tables():
    system = build_system("pipette", small_sim_config())
    fds = [
        make_open_file(system, path=f"/data/f{index}.bin", size=65536)
        for index in range(10)
    ]
    for fd in fds:
        system.read(fd, 128, 64)
    assert len(system.cache.tables) == 10


def test_dispatch_threshold_override():
    config = small_sim_config()
    config = config.scaled(
        pipette=dataclasses.replace(config.pipette, dispatch_threshold_bytes=256)
    )
    system = build_system("pipette", config)
    fd = make_open_file(system)
    system.read(fd, 0, 255)  # below threshold: fine path
    system.read(fd, 8192, 256)  # at threshold: block path
    assert system.cache.counter.accesses == 1


def test_info_record_mismatch_station():
    """A single oversized command overflows the ring deterministically."""
    area = InfoArea(capacity=4)
    for index in range(3):
        area.push(InfoRecord(dest_addr=index, byte_offset=0, byte_length=8))
    with pytest.raises(BufferError):
        area.push(InfoRecord(dest_addr=99, byte_offset=0, byte_length=8))


def test_write_invalidates_item_longer_than_a_page():
    """A write deletes a multi-page item even behind a shorter one."""
    config = small_sim_config()
    config = config.scaled(
        cache=dataclasses.replace(config.cache, max_item_bytes=8192),
        pipette=dataclasses.replace(config.pipette, dispatch_threshold_bytes=8192),
    )
    system = build_system("pipette", config)
    fd = make_open_file(system)
    before = system.read(fd, 0, 6000)
    system.read(fd, 500, 100)
    system.write(fd, 5000, b"!" * 10)
    # Flush, so a read that misses the FGRC finds the new bytes on flash.
    system.fsync(fd)
    after = system.read(fd, 0, 6000)
    assert system.cache.counter.hits == 0
    assert after[5000:5010] == b"!" * 10
    assert after[:5000] == before[:5000]
    assert after[5010:] == before[5010:]

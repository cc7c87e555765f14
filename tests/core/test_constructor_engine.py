"""Tests for the constructor and the device-side Read Engine."""

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.core.constructor import FineGrainedConstructor, FineReadRange
from repro.core.engine import FineGrainedReadEngine
from repro.core.read_cache.info_area import InfoArea, InfoRecord
from repro.kernel.fs.ext4 import ExtentFileSystem
from repro.ssd.device import SSDDevice
from repro.ssd.nand import page_pattern


@pytest.fixture
def rig():
    spec = SSDSpec(capacity_bytes=64 * MIB, mapping_region_bytes=2 * MIB)
    config = SimConfig(
        ssd=spec, cache=CacheConfig(shared_memory_bytes=MIB, fgrc_bytes=512 * 1024)
    )
    device = SSDDevice(config)
    fs = ExtentFileSystem(total_pages=spec.total_pages, page_size=spec.page_size)
    info = InfoArea(capacity=64)
    constructor = FineGrainedConstructor(fs=fs, info_area=info)
    engine = FineGrainedReadEngine(
        config=config,
        controller=device.controller,
        link=device.link,
        hmb=device.hmb,
        info_area=info,
    )
    inode = fs.create("/f", MIB)
    return config, device, fs, info, constructor, engine, inode


def test_fine_read_range_fields():
    fine = FineReadRange(lba=3, offset_in_page=100, length=28, dest_addr=777)
    assert (fine.lba, fine.offset_in_page, fine.length, fine.dest_addr) == (3, 100, 28, 777)


def test_construct_produces_info_records(rig):
    _, _, fs, info, constructor, _, inode = rig
    ranges = constructor.construct_multi(inode, [(100, 28, 500)])
    assert len(ranges) == 1
    assert info.produced == 1
    fine = ranges[0]
    lba = fs.page_lba(inode, 0)
    assert (fine.lba, fine.offset_in_page, fine.length, fine.dest_addr) == (lba, 100, 28, 500)


def test_engine_transfers_demanded_bytes_to_hmb(rig):
    _, device, fs, info, constructor, engine, inode = rig
    engine.read(constructor.construct_multi(inode, [(100, 28, 500)]))
    assert device.traffic.device_to_host_bytes == 28
    lba = fs.page_lba(inode, 0)
    expected = page_pattern(lba)[100:128]
    assert device.hmb.read(500, 28) == expected
    assert info.consumed == 1
    assert engine.ranges_served == 1


def test_engine_handles_page_crossing_range(rig):
    _, device, fs, _, constructor, engine, inode = rig
    engine.read(constructor.construct_multi(inode, [(4090, 16, 100)]))
    assert device.traffic.device_to_host_bytes == 16
    lba0 = fs.page_lba(inode, 0)
    lba1 = fs.page_lba(inode, 1)
    expected = page_pattern(lba0)[4090:] + page_pattern(lba1)[:10]
    assert device.hmb.read(100, 16) == expected


def test_engine_traffic_is_demanded_bytes_only(rig):
    _, device, _, _, constructor, engine, inode = rig
    engine.read(constructor.construct_multi(inode, [(0, 64, 0)]))
    assert device.traffic.device_to_host_bytes == 64


def test_engine_rejects_mismatched_info_record(rig):
    _, _, _, info, constructor, engine, inode = rig
    ranges = constructor.construct_multi(inode, [(0, 64, 0)])
    # Corrupt the ring: consume the record the host staged and replace
    # it with one pointing elsewhere.
    record = info.consume()
    info.push(InfoRecord(dest_addr=record.dest_addr + 8, byte_offset=0, byte_length=64))
    with pytest.raises(RuntimeError):
        engine.read(ranges)
    assert engine.commands_handled == 0


def test_engine_qd1_nand_overlap(rig):
    config, device, *_ = rig
    assert config.ssd.channels == 8
    controller = device.controller
    controller.record_array_phase([60.0] * 8)
    controller.record_array_phase([60.0] * 9)
    controller.record_array_phase([])  # no pages, no stage
    phases = [stage for stage in device.tracer.ambient.stages if stage.name == "nand_array"]
    assert [stage.ns for stage in phases] == [60.0, 120.0]
    assert not any(stage.charged for stage in phases)

"""Tests for the optional controller read-buffer hit path."""

import dataclasses

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.ssd.device import SSDDevice
from tests.conftest import root_trace


def make_device(read_buffer_hits: bool) -> SSDDevice:
    spec = SSDSpec(
        capacity_bytes=64 * MIB,
        mapping_region_bytes=2 * MIB,
        read_buffer_hits=read_buffer_hits,
        read_buffer_pages=4,
    )
    config = SimConfig(
        ssd=spec, cache=CacheConfig(shared_memory_bytes=MIB, fgrc_bytes=512 * 1024)
    )
    return SSDDevice(config)


def test_disabled_by_default_rereads_nand():
    device = make_device(read_buffer_hits=False)
    device.controller.sense_page(5)
    reads_before = device.nand.reads
    device.controller.sense_page(5)
    assert device.nand.reads == reads_before + 1
    assert device.controller.read_buffer_hits == 0


def test_enabled_serves_repeat_from_buffer():
    device = make_device(read_buffer_hits=True)
    content_first, nand_ns_first = device.controller.sense_page(5)
    reads_before = device.nand.reads
    content_second, nand_ns_second = device.controller.sense_page(5)
    assert device.nand.reads == reads_before  # no array access
    assert content_second == content_first
    assert nand_ns_second < nand_ns_first
    assert device.controller.read_buffer_hits == 1


def test_buffer_eviction_forces_rearead():
    device = make_device(read_buffer_hits=True)
    device.controller.sense_page(1)
    for lba in range(10, 14):  # evicts lba 1 from the 4-slot buffer
        device.controller.sense_page(lba)
    reads_before = device.nand.reads
    device.controller.sense_page(1)
    assert device.nand.reads == reads_before + 1


def test_write_invalidates_buffered_page():
    device = make_device(read_buffer_hits=True)
    device.controller.sense_page(5)
    payload = bytes([0xCD]) * 4096
    device.block_write([(5, payload)])
    content, _ = device.controller.sense_page(5)
    assert content == payload


def test_timing_model_unchanged_when_disabled():
    baseline = make_device(read_buffer_hits=False)
    with root_trace(baseline.tracer) as first:
        baseline.block_read([7])
    with root_trace(baseline.tracer) as second:
        baseline.block_read([7])
    assert first.latency_ns() == pytest.approx(second.latency_ns())

"""Tests for the kernel's block submissions to the device.

The block read path calls ``SSDDevice.block_read``/``block_write``
directly.
"""

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.ssd.device import SSDDevice
from repro.ssd.nand import page_pattern
from tests.conftest import root_trace


@pytest.fixture
def device():
    spec = SSDSpec(capacity_bytes=64 * MIB, mapping_region_bytes=2 * MIB)
    config = SimConfig(
        ssd=spec, cache=CacheConfig(shared_memory_bytes=MIB, fgrc_bytes=512 * 1024)
    )
    return SSDDevice(config)


def test_read_pages_returns_contents(device):
    with root_trace(device.tracer) as trace:
        pages = device.block_read([3, 4, 10])
    assert pages[3] == page_pattern(3)
    assert pages[10] == page_pattern(10)
    assert trace.latency_ns() > 0


def test_background_lbas_passed_through(device):
    pages = device.block_read([0], background_lbas=[1, 2])
    assert set(pages) == {0, 1, 2}
    assert device.traffic.device_to_host_bytes == 3 * 4096


def test_write_pages_roundtrip(device):
    payload = bytes([7]) * 4096
    with root_trace(device.tracer) as trace:
        device.block_write([(9, payload)])
    assert trace.latency_ns() > 0
    pages = device.block_read([9])
    assert pages[9] == payload


def test_empty_request_list(device):
    with root_trace(device.tracer) as trace:
        pages = device.block_read([])
    assert pages == {}
    assert trace.latency_ns() == 0.0
    assert device.controller.pages_sensed == 0

"""Tests for the NVMe driver model."""

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.kernel.block_layer import BlockLayer, BlockRequest
from repro.kernel.driver import NvmeDriver
from repro.ssd.device import SSDDevice
from repro.ssd.nand import page_pattern
from tests.conftest import root_trace


@pytest.fixture
def driver():
    spec = SSDSpec(capacity_bytes=64 * MIB, mapping_region_bytes=2 * MIB)
    config = SimConfig(
        ssd=spec, cache=CacheConfig(shared_memory_bytes=MIB, fgrc_bytes=512 * 1024)
    )
    return NvmeDriver(SSDDevice(config))


def test_read_pages_returns_contents(driver):
    requests = BlockLayer().build_requests([3, 4, 10])
    with root_trace(driver.device.tracer) as trace:
        pages = driver.read_pages(requests)
    assert pages[3] == page_pattern(3)
    assert pages[10] == page_pattern(10)
    assert trace.latency_ns() > 0


def test_commands_counted_via_queue(driver):
    requests = BlockLayer().build_requests([3, 4, 10])  # two runs
    driver.read_pages(requests)
    assert driver.commands_issued == 2


def test_background_lbas_passed_through(driver):
    requests = [BlockRequest(0, 1)]
    pages = driver.read_pages(requests, background_lbas=[1, 2])
    assert set(pages) == {0, 1, 2}
    assert driver.device.traffic.device_to_host_bytes == 3 * 4096


def test_write_pages_roundtrip(driver):
    payload = bytes([7]) * 4096
    with root_trace(driver.device.tracer) as trace:
        driver.write_pages([(9, payload)])
    assert trace.latency_ns() > 0
    pages = driver.read_pages([BlockRequest(9, 1)])
    assert pages[9] == payload


def test_empty_request_list(driver):
    with root_trace(driver.device.tracer) as trace:
        pages = driver.read_pages([])
    assert pages == {}
    assert trace.latency_ns() == 0.0

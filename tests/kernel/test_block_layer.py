"""Tests for how the device serves the kernel's block page lists.

The kernel hands page LBAs straight to ``SSDDevice.block_read``, which
senses each distinct page once, in ascending LBA order, and records one
array phase, one transfer and one completion for the whole list: gaps
between pages split nothing.
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


def _sensed_lbas(monkeypatch, device) -> list[int]:
    sensed: list[int] = []
    sense_ppn = device.controller.sense_ppn

    def recording(lba, ppn):
        sensed.append(lba)
        return sense_ppn(lba, ppn)

    monkeypatch.setattr(device.controller, "sense_ppn", recording)
    return sensed


def test_merges_contiguous_lbas(device):
    with root_trace(device.tracer) as trace:
        pages = device.block_read([4, 5, 6, 10])
    assert set(pages) == {4, 5, 6, 10}
    names = [stage.name for stage in trace.stages]
    assert names.count("nand_array") == 1
    assert names.count("completion") == 1
    assert device.traffic.device_to_host_bytes == 4 * 4096


def test_sorts_and_dedups(device, monkeypatch):
    sensed = _sensed_lbas(monkeypatch, device)
    pages = device.block_read([6, 4, 5, 5])
    assert sensed == [4, 5, 6]
    assert set(pages) == {4, 5, 6}
    assert pages[5] == page_pattern(5)
    assert device.traffic.device_to_host_bytes == 3 * 4096


def test_empty_input(device, monkeypatch):
    sensed = _sensed_lbas(monkeypatch, device)
    with root_trace(device.tracer) as trace:
        assert device.block_read([]) == {}
    assert sensed == []
    assert trace.stages == []

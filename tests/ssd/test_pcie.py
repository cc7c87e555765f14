"""Tests for the host/device link: DMA, mappings and MMIO loads."""

import pytest

from repro.config import TimingModel
from repro.sim.resources import ResourceModel
from repro.sim.trace import Tracer
from repro.ssd.fabric import pcie_interconnect
from repro.ssd.pcie import PcieLink


@pytest.fixture
def timing():
    return TimingModel()


@pytest.fixture
def link(timing):
    return PcieLink(interconnect=pcie_interconnect(timing))


@pytest.fixture
def tracer():
    return Tracer(ResourceModel())


def _stages(tracer):
    return [(stage.name, stage.ns) for stage in tracer.ambient.stages]


def test_dma_to_host_timing_and_traffic(link, timing):
    elapsed = link.dma_to_host_ns(4096)
    assert elapsed == pytest.approx(timing.pcie_tlp_ns + 4096 / timing.pcie_bw_bytes_per_ns)
    assert link.traffic.device_to_host_bytes == 4096


def test_dma_to_device_traffic_direction(link):
    link.dma_to_device_ns(100)
    assert link.traffic.host_to_device_bytes == 100
    assert link.traffic.device_to_host_bytes == 0


def test_zero_transfer_is_free(link):
    assert link.dma_to_host_ns(0) == 0.0
    assert link.traffic.device_to_host_bytes == 0


def test_negative_transfer_rejected(link):
    with pytest.raises(ValueError):
        link.dma_to_host_ns(-1)
    with pytest.raises(ValueError):
        link.mmio_read_ns(-1)


def test_mmio_read_split_into_8_byte_transactions(link, timing):
    # 128 bytes -> 16 non-posted transactions.
    assert link.mmio_read_ns(128) == pytest.approx(16 * timing.mmio_tlp_ns)
    # 129 bytes -> 17 transactions (ceiling).
    assert link.mmio_read_ns(129) == pytest.approx(17 * timing.mmio_tlp_ns)


def test_mmio_latency_grows_linearly(link):
    assert link.mmio_read_ns(4096) > link.mmio_read_ns(1024) > link.mmio_read_ns(8)


def test_mmio_meters_traffic(link):
    link.mmio_read_ns(100)
    assert link.traffic.device_to_host_bytes == 100


def test_dma_persistent_mapping_paid_once(timing, link, tracer):
    first = link.establish_persistent_mapping(tracer)
    second = link.establish_persistent_mapping(tracer)
    assert first == timing.dma_map_ns
    assert second == 0.0
    assert link.map_established
    assert link.mappings_created == 1
    (stage,) = tracer.ambient.stages
    assert (stage.name, stage.ns) == ("hmb_setup", timing.dma_map_ns)
    assert not stage.latency and not stage.charged


def test_dma_per_access_mapping_cost(timing, link, tracer):
    link.pull_per_access(tracer, 128)
    assert _stages(tracer) == [
        ("dma_map", timing.dma_map_ns),
        ("pcie_xfer", pytest.approx(link.interconnect.bulk_transfer_ns(128))),
    ]
    assert link.mappings_created == 1
    assert link.traffic.device_to_host_bytes == 128


def test_mmio_fault_counted(timing, link, tracer):
    link.mmio_pull(tracer, 8)
    assert _stages(tracer)[0] == ("mmio_fault", timing.page_fault_ns)
    link.mmio_pull(tracer, 8)
    assert link.faults_taken == 2


def test_timing_helper_dram_copy(timing):
    assert timing.dram_copy_ns(0) == 0.0
    assert timing.dram_copy_ns(100) == pytest.approx(100 / timing.dram_bw_bytes_per_ns)

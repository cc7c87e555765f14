"""Host/device fabric tests: the table, the cost records, FDP placement."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import pytest

from repro.config import SimConfig, TimingModel
from repro.experiments import backend_matrix
from repro.ssd.fabric import (
    CXL_BW_BYTES_PER_NS,
    CXL_CACHELINE_BYTES,
    CXL_LOAD_NS,
    CXL_STORE_NS,
    DEFAULT_HANDLES,
    FIRST_CLASS_HANDLE,
    TEMPBUF_HANDLE,
    BufferPlacement,
    FdpPlacement,
    Interconnect,
    available_backends,
    build_fabric,
    cxl_interconnect,
    pcie_interconnect,
)
from repro.system import build_system
from tests.conftest import small_sim_config


# --- PCIe link bandwidth ----------------------------------------------


def test_default_link_matches_historical_constant():
    # Gen3 x4: 0.8 bytes/ns per lane, exactly the historical constant.
    assert TimingModel().pcie_bw_bytes_per_ns == 0.8 * 4 == 3.2
    assert pcie_interconnect(TimingModel()).bulk_bw_bytes_per_ns == 3.2


def test_link_validation():
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        TimingModel(pcie_bw_bytes_per_ns=-1.0)
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        TimingModel(pcie_bw_bytes_per_ns=0.0)


def test_explicit_bandwidth_overrides_link_geometry():
    timing = TimingModel(pcie_bw_bytes_per_ns=6.4)
    assert timing.pcie_bw_bytes_per_ns == 6.4
    assert pcie_interconnect(timing).bulk_transfer_ns(6400) == timing.pcie_tlp_ns + 1000.0


# --- fabric table ------------------------------------------------------


def test_registry_lists_all_three_backends():
    names = available_backends()
    assert {"pcie_gen3", "cxl_lmb", "nvme_fdp"} <= set(names)
    assert names == sorted(names)


def test_unknown_backend_error_names_the_choices():
    with pytest.raises(KeyError) as excinfo:
        build_fabric("pcie_gen7", TimingModel())
    message = str(excinfo.value)
    assert "unknown backend 'pcie_gen7'" in message
    for name in available_backends():
        assert name in message


def test_unknown_backend_fails_at_device_construction():
    config = small_sim_config(backend="bogus")
    with pytest.raises(KeyError, match="unknown backend 'bogus'"):
        build_system("pipette", config)


def test_backend_survives_config_round_trip():
    config = SimConfig(backend="cxl_lmb")
    assert config.scaled().backend == "cxl_lmb"
    assert config.scaled(backend="nvme_fdp").backend == "nvme_fdp"


@pytest.mark.parametrize("backend", ["pcie_gen3", "cxl_lmb", "nvme_fdp"])
def test_device_carries_the_selected_backend(backend):
    config = small_sim_config(backend=backend)
    system = build_system("pipette", config)
    interconnect, placement = build_fabric(backend, config.timing)
    assert system.device.link.interconnect == interconnect
    assert type(system.device.placement) is type(placement)
    assert system.device.controller.placement is system.device.placement


# --- pcie_gen3: the record is built from the timing model ------------


def test_pcie_backend_delegates_to_timing_model():
    timing = TimingModel()
    interconnect, placement = build_fabric("pcie_gen3", timing)
    for nbytes in (1, 8, 100, 4096):
        assert interconnect.bulk_transfer_ns(nbytes) == (
            timing.pcie_tlp_ns + nbytes / timing.pcie_bw_bytes_per_ns
        )
        transactions = math.ceil(nbytes / timing.mmio_payload_bytes)
        assert interconnect.byte_read_ns(nbytes) == transactions * timing.mmio_tlp_ns
    assert interconnect.bulk_transfer_ns(0) == interconnect.byte_read_ns(0) == 0.0
    assert interconnect.fault_ns == float(timing.page_fault_ns)
    assert interconnect.map_ns == float(timing.dma_map_ns)
    assert interconnect.byte_read_stage == "mmio_pull"
    assert type(placement) is BufferPlacement
    assert placement.stats() == {}


# --- cxl_lmb: coherent load/store fabric -------------------------------


def test_cxl_interconnect_costs():
    ic = cxl_interconnect(TimingModel())
    # Loads are per-cacheline round trips.
    assert ic.byte_read_ns(8) == CXL_LOAD_NS
    assert ic.byte_read_ns(CXL_CACHELINE_BYTES) == CXL_LOAD_NS
    assert ic.byte_read_ns(CXL_CACHELINE_BYTES + 1) == 2 * CXL_LOAD_NS
    assert ic.byte_read_ns(4096) == math.ceil(4096 / 64) * CXL_LOAD_NS
    # Bulk transfers: store setup + streaming, no TLP, no mapping.
    assert ic.bulk_transfer_ns(4096) == pytest.approx(
        CXL_STORE_NS + 4096 / CXL_BW_BYTES_PER_NS
    )
    assert ic.bulk_transfer_ns(0) == 0.0
    assert ic.byte_read_stage == "cxl_load"
    # The whole point: no page fault, no DMA mapping on a coherent fabric.
    assert ic.fault_ns == 0.0
    assert ic.map_ns == 0.0


# --- nvme_fdp: placement handles ---------------------------------------


def test_fdp_handle_mapping_round_robins_slab_classes():
    placement = FdpPlacement()
    span = DEFAULT_HANDLES - FIRST_CLASS_HANDLE
    assert placement.tempbuf_handle == TEMPBUF_HANDLE
    assert placement.block_handle == 0
    seen = {placement.handle_for_class(i) for i in range(2 * span)}
    assert seen == set(range(FIRST_CLASS_HANDLE, DEFAULT_HANDLES))
    assert placement.handle_for_class(0) == FIRST_CLASS_HANDLE
    assert placement.handle_for_class(span) == FIRST_CLASS_HANDLE


def test_fdp_placements_share_no_state():
    """Each device's placement keeps its own counters and staging."""
    first, second = FdpPlacement(), FdpPlacement()
    first.stage_destination(0x1000, 3)
    first.record_admission(3, 256)
    first.record_read(3, 64, pages=(7,))
    first.record_write(0, 4096, ppn=9)
    assert second.stats() == {"fdp_handles": float(DEFAULT_HANDLES), "fdp_staged_pending": 0.0}
    assert second.pop_destination(0x1000) == second.block_handle


@pytest.mark.parametrize(
    "container", [[], {}, set()], ids=["list", "dict", "set"]
)
def test_mutable_class_attribute_fails_at_class_creation(container):
    """A cost record cannot carry state shared by every device.

    ``Interconnect`` is a frozen, hashable dataclass: no built record
    holds a container or takes one by assignment, and a ``list``/
    ``dict``/``set`` default, which every record (and so every simulated
    device) would share, is refused when the class is created.
    Placement state is per instance (``test_fdp_placements_share_no_state``).
    """
    for name in available_backends():
        interconnect, _ = build_fabric(name, TimingModel())
        hash(interconnect)  # TypeError if a field holds a container
        with pytest.raises(FrozenInstanceError):
            interconnect.recent = container
    with pytest.raises(ValueError, match="mutable default"):

        @dataclass(frozen=True)
        class ShapedLink(Interconnect):
            recent: object = container


def test_fdp_stage_pop_and_stats():
    placement = FdpPlacement()
    placement.stage_destination(0x1000, 3)
    placement.record_admission(3, 256)
    assert placement.pop_destination(0x1000) == 3
    # Popping again falls back to the block handle (destination gone).
    assert placement.pop_destination(0x1000) == placement.block_handle
    placement.record_read(3, 256, pages=(7, 8))
    placement.record_write(0, 4096, ppn=42)
    stats = placement.stats()
    assert stats["fdp_handles"] == float(DEFAULT_HANDLES)
    assert stats["fdp_staged_pending"] == 0.0
    assert stats["fdp_h3_admitted_bytes"] == 256.0
    assert stats["fdp_h3_read_bytes"] == 256.0
    assert stats["fdp_h3_footprint_pages"] == 2.0
    assert stats["fdp_h0_written_bytes"] == 4096.0
    assert stats["fdp_h0_footprint_pages"] == 1.0
    # Quiet handles stay out of the report.
    assert "fdp_h5_read_bytes" not in stats


def test_fdp_system_run_pops_every_staged_destination():
    """End to end: every admit/tempbuf destination is resolved exactly once."""
    from repro.analysis.digest import digest_config, system_fingerprint

    record = system_fingerprint("pipette", digest_config(backend="nvme_fdp"))
    assert record["cache_stats"]["fdp_staged_pending"] == 0.0


def test_unified_placement_is_a_no_op():
    placement = BufferPlacement()
    placement.stage_destination(0x2000, 5)
    assert placement.pop_destination(0x2000) == 0
    assert placement.handle_for_class(9) == 0
    placement.record_admission(0, 100)
    placement.record_read(0, 100, pages=(1,))
    placement.record_write(0, 100, ppn=1)
    assert placement.stats() == {}


# --- crossover direction ---------------------------------------------


def test_cxl_crossover_sits_below_pcie_crossover():
    """Coherent loads + zero mapping cost collapse the MMIO-vs-DMA
    crossover toward the smallest request sizes."""
    from repro.experiments.scale import get_scale

    sizes = [8, 64, 512, 4096]
    outcome = backend_matrix.run(
        get_scale("tiny"), backends=["pcie_gen3", "cxl_lmb"], sizes=sizes
    )
    crossovers = outcome.extra["crossover_bytes"]
    pcie = crossovers["pcie_gen3"]
    cxl = crossovers["cxl_lmb"]
    assert cxl is not None
    assert pcie is None or cxl < pcie
    # On CXL the DMA-style pull should win from the smallest size swept.
    assert cxl == sizes[0]


def test_crossover_helper():
    latencies = {
        backend_matrix.MMIO_SYSTEM: {8: 1.0, 64: 2.0, 512: 9.0},
        backend_matrix.DMA_SYSTEM: {8: 5.0, 64: 5.0, 512: 6.0},
    }
    assert backend_matrix.crossover_bytes(latencies, [8, 64, 512]) == 512
    latencies[backend_matrix.DMA_SYSTEM][512] = 99.0
    assert backend_matrix.crossover_bytes(latencies, [8, 64, 512]) is None

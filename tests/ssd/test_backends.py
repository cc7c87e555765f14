"""Interconnect/placement backend tests: registry, link spec, FDP, CXL."""

from __future__ import annotations

import math

import pytest

from repro.config import PCIE_LANE_BW_BYTES_PER_NS, PcieLinkSpec, SimConfig, TimingModel
from repro.experiments import backend_matrix
from repro.ssd.backends import (
    BufferPlacement,
    Interconnect,
    UnifiedPlacement,
    available_backends,
    build_backend,
)
from repro.ssd.backends.cxl_lmb import CxlLmbInterconnect, CxlLmbParams
from repro.ssd.backends.nvme_fdp import (
    DEFAULT_HANDLES,
    FIRST_CLASS_HANDLE,
    FdpPlacement,
    TEMPBUF_HANDLE,
)
from repro.system import build_system
from tests.conftest import small_sim_config


# --- satellite 1: PCIe link geometry ----------------------------------


def test_default_link_matches_historical_constant():
    spec = PcieLinkSpec()
    assert (spec.gen, spec.lanes) == (3, 4)
    assert spec.bw_bytes_per_ns == 3.2
    assert TimingModel().pcie_bw_bytes_per_ns == 3.2


def test_link_bandwidth_derives_from_gen_and_lanes():
    assert PcieLinkSpec(gen=4, lanes=2).bw_bytes_per_ns == pytest.approx(3.2)
    assert PcieLinkSpec(gen=5, lanes=4).bw_bytes_per_ns == pytest.approx(12.8)
    assert PcieLinkSpec(gen=1, lanes=1).bw_bytes_per_ns == pytest.approx(0.2)


def test_link_validation():
    with pytest.raises(ValueError, match="unknown PCIe generation"):
        PcieLinkSpec(gen=9)
    with pytest.raises(ValueError, match="lane count must be positive"):
        PcieLinkSpec(lanes=0)
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        TimingModel(pcie_bw_bytes_per_ns=-1.0)


def test_explicit_bandwidth_overrides_link_geometry():
    timing = TimingModel(pcie_bw_bytes_per_ns=6.4)
    assert timing.pcie_bw_bytes_per_ns == 6.4


def test_lane_bandwidth_table_is_doubling():
    gens = sorted(PCIE_LANE_BW_BYTES_PER_NS)
    for lo, hi in zip(gens, gens[1:]):
        assert PCIE_LANE_BW_BYTES_PER_NS[hi] == pytest.approx(
            2 * PCIE_LANE_BW_BYTES_PER_NS[lo]
        )


# --- registry ----------------------------------------------------------


def test_registry_lists_all_three_backends():
    names = available_backends()
    assert {"pcie_gen3", "cxl_lmb", "nvme_fdp"} <= set(names)
    assert names == sorted(names)


def test_unknown_backend_error_names_the_choices():
    with pytest.raises(KeyError) as excinfo:
        build_backend("pcie_gen7", TimingModel())
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
    system = build_system("pipette", small_sim_config(backend=backend))
    assert system.device.backend.name == backend
    assert system.device.link.interconnect is system.device.backend.interconnect
    assert system.device.placement is system.device.backend.placement


# --- pcie_gen3: delegation is arithmetic-identical ---------------------


def test_pcie_backend_delegates_to_timing_model():
    timing = TimingModel()
    backend = build_backend("pcie_gen3", timing)
    ic = backend.interconnect
    for nbytes in (1, 8, 100, 4096):
        assert ic.bulk_transfer_ns(nbytes) == timing.pcie_transfer_ns(nbytes)
        assert ic.byte_read_ns(nbytes) == timing.mmio_read_ns(nbytes)
    assert ic.byte_fault_ns() == float(timing.page_fault_ns)
    assert ic.per_access_map_ns() == float(timing.dma_map_ns)
    assert ic.persistent_map_ns() == float(timing.dma_map_ns)
    assert not ic.coherent
    assert ic.byte_read_stage == "mmio_pull"
    assert isinstance(backend.placement, UnifiedPlacement)
    assert backend.placement.stats() == {}


# --- cxl_lmb: coherent load/store fabric -------------------------------


def test_cxl_params_validation():
    with pytest.raises(ValueError):
        CxlLmbParams(load_ns=0.0)
    with pytest.raises(ValueError):
        CxlLmbParams(bw_bytes_per_ns=-1.0)


def test_cxl_interconnect_costs():
    ic = CxlLmbInterconnect(TimingModel())
    params = CxlLmbParams()
    # Loads are per-cacheline round trips.
    assert ic.byte_read_ns(8) == params.load_ns
    assert ic.byte_read_ns(64) == params.load_ns
    assert ic.byte_read_ns(65) == 2 * params.load_ns
    assert ic.byte_read_ns(4096) == math.ceil(4096 / 64) * params.load_ns
    # Bulk transfers: store setup + streaming, no TLP, no mapping.
    assert ic.bulk_transfer_ns(4096) == pytest.approx(
        params.store_ns + 4096 / params.bw_bytes_per_ns
    )
    assert ic.bulk_transfer_ns(0) == 0.0
    assert ic.coherent
    assert ic.byte_read_stage == "cxl_load"
    # The whole point: no page fault, no DMA mapping on a coherent fabric.
    assert ic.byte_fault_ns() == 0.0
    assert ic.per_access_map_ns() == 0.0
    assert ic.persistent_map_ns() == 0.0


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


def test_fdp_rejects_too_few_handles():
    with pytest.raises(ValueError, match="handles"):
        FdpPlacement(handles=2)


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


# --- crossover direction (satellite 3) ---------------------------------


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


# --- contract conformance at class creation -----------------------------


def test_interconnect_missing_byte_read_fails_at_instantiation():
    class HalfLink(Interconnect):
        """Implements bulk transfers but forgot the byte-read path."""

        name = "half"

        def bulk_transfer_ns(self, nbytes):
            return 0.0

    with pytest.raises(TypeError, match="byte_read_ns"):
        HalfLink()


def test_abstract_intermediate_interconnect_is_not_required_complete():
    import abc

    class Base(Interconnect):
        @abc.abstractmethod
        def bulk_transfer_ns(self, nbytes):
            ...

    with pytest.raises(TypeError, match="abstract"):
        Base()

    class Done(Base):
        def bulk_transfer_ns(self, nbytes):
            return 1.0

        def byte_read_ns(self, nbytes):
            return 2.0

    assert Done().byte_read_ns(8) == 2.0


@pytest.mark.parametrize(
    "container", [[], {}, set()], ids=["list", "dict", "set"]
)
def test_mutable_class_attribute_fails_at_class_creation(container):
    with pytest.raises(TypeError, match="ShapedLink.recent is a mutable class attribute"):

        class ShapedLink(Interconnect):
            name = "shaped"
            recent = container

    with pytest.raises(TypeError, match="Hoarder._seen is a mutable class attribute"):

        class Hoarder(BufferPlacement):
            _seen = container


def test_renamed_byte_read_parameter_fails_at_class_creation():
    with pytest.raises(TypeError, match=r"ShapedLink.byte_read_ns\(self, count\)"):

        class ShapedLink(Interconnect):
            def bulk_transfer_ns(self, nbytes):
                return 0.0

            def byte_read_ns(self, count):
                return 0.0


def test_extra_positional_on_optional_hook_fails_at_class_creation():
    with pytest.raises(TypeError, match=r"byte_fault_ns\(self, nbytes\)"):

        class FaultyLink(Interconnect):
            def byte_fault_ns(self, nbytes):
                return 0.0


def test_swapped_placement_parameters_fail_at_class_creation():
    with pytest.raises(TypeError, match="SwappedPlacement.record_read"):

        class SwappedPlacement(BufferPlacement):
            def record_read(self, nbytes, handle):
                ...


def test_conforming_backends_with_varied_keyword_only_params_pass():
    """Control: keyword-only parameters are free to vary, and a class
    attribute that is a tuple or a scalar is not shared mutable state."""

    class KeywordLink(Interconnect):
        name = "keyword"
        lanes = (1, 2)

        def bulk_transfer_ns(self, nbytes, *, burst=False):
            return float(nbytes)

        def byte_read_ns(self, nbytes, *, retries=0, cold=True):
            return float(nbytes) * (retries + 1)

    class KeywordPlacement(BufferPlacement):
        handles = 2

        def record_read(self, handle, nbytes, *, pages=(), reason=""):
            self.last = (handle, nbytes, pages, reason)

        def record_write(self, handle, nbytes, *, ppn=None, urgent=False):
            ...

    assert KeywordLink().byte_read_ns(4, retries=1) == 8.0
    placement = KeywordPlacement()
    placement.record_read(1, 64, reason="hit")
    assert placement.last == (1, 64, (), "hit")
    # The shipped backends pass the same check (importing them ran it).
    assert {"pcie_gen3", "cxl_lmb", "nvme_fdp"} <= set(available_backends())

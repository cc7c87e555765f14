"""Configuration dataclasses for the Pipette reproduction.

Everything tunable lives here: the simulated SSD hardware specification
(mirroring the paper's Figure 5), the timing model used for latency and
throughput accounting, cache/memory budgets, and Pipette's own policy
parameters.  All configuration objects are frozen dataclasses so a
configuration can be shared between systems without defensive copying.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Mapping

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

US = 1_000  # nanoseconds per microsecond
MS = 1_000_000  # nanoseconds per millisecond


class NandType(enum.Enum):
    """NAND flash cell technology; determines page-read (tR) latency."""

    SLC = "slc"
    MLC = "mlc"
    TLC = "tlc"


@dataclass(frozen=True)
class SSDSpec:
    """Hardware specification of the simulated SSD.

    Defaults mirror the paper's Figure 5 (YS9203 development platform):
    8 channels, a 64 MiB HMB mapping region and 477 GB module capacity;
    the rows no simulation reads (host interface, protocol, ways, cores,
    DRAM size) are :mod:`repro.experiments.fig5` constants.
    ``capacity_bytes`` may be reduced for scaled simulations; the
    geometry checks only require it to be page aligned.
    """

    channels: int = 8
    nand_type: NandType = NandType.MLC
    page_size: int = 4096
    pages_per_block: int = 256
    mapping_region_bytes: int = 64 * MIB
    capacity_bytes: int = 477_000_000_000

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size % 512:
            raise ValueError(f"page_size must be a positive multiple of 512, got {self.page_size}")
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if self.capacity_bytes < self.page_size:
            raise ValueError("capacity smaller than one page")

    @property
    def total_pages(self) -> int:
        """Number of addressable logical pages (LBAs are page-granular)."""
        return self.capacity_bytes // self.page_size

    @property
    def block_size(self) -> int:
        """Bytes per NAND erase block."""
        return self.page_size * self.pages_per_block


#: Default NAND page read (tR) latencies in nanoseconds by cell type.
DEFAULT_NAND_READ_NS: Mapping[NandType, int] = {
    NandType.SLC: 25 * US,
    NandType.MLC: 50 * US,
    NandType.TLC: 60 * US,
}

#: Default NAND page program latencies in nanoseconds by cell type.
DEFAULT_NAND_PROGRAM_NS: Mapping[NandType, int] = {
    NandType.SLC: 200 * US,
    NandType.MLC: 600 * US,
    NandType.TLC: 900 * US,
}


@dataclass(frozen=True)
class TimingModel:
    """All latency constants, in nanoseconds (bandwidths in bytes/ns).

    The model decomposes a request into host-CPU work, NAND array work,
    and interconnect transfers; :class:`repro.sim.resources.ResourceModel`
    accumulates each component on its own resource so both queue-depth-1
    latency (paper Fig. 8) and pipelined bottleneck throughput (paper
    Figs. 6/7/9) can be derived from one run.

    Calibration targets (see DESIGN.md section 5): Pipette cache hit
    ~2 us; fine-grained miss ~63 us; 2B-SSD DMA ~23 us above the fine
    miss (per-access DMA mapping); block-path miss ~15-40 us above
    2B-SSD DMA (channel-serialized full-page read); MMIO crossing the
    fine-path near 32 B and the DMA mode near 1 KiB.
    """

    # --- NAND array ---
    nand_read_ns: Mapping[NandType, int] = field(
        default_factory=lambda: dict(DEFAULT_NAND_READ_NS)
    )
    nand_program_ns: Mapping[NandType, int] = field(
        default_factory=lambda: dict(DEFAULT_NAND_PROGRAM_NS)
    )
    #: Flash channel transfer time for one full page (ONFI-style bus).
    channel_xfer_page_ns: int = 10 * US

    # --- PCIe link ---
    #: Effective payload bandwidth in bytes/ns (= GB/s): Gen3 x4, 8 GT/s
    #: per lane less 128b/130b encoding and ~20% TLP/DLLP overhead.
    pcie_bw_bytes_per_ns: float = 3.2
    #: Fixed cost per DMA descriptor / TLP batch on the link.
    pcie_tlp_ns: int = 300
    #: MMIO non-posted read transaction: max payload per transaction.
    mmio_payload_bytes: int = 8
    #: Round-trip cost of one non-posted MMIO read transaction.
    mmio_tlp_ns: int = 185

    # --- per-access setup costs (the 2B-SSD critical-path overheads) ---
    #: Page-fault service to map a CMB page for MMIO access.
    page_fault_ns: int = 1 * US
    #: Per-access DMA mapping setup (2B-SSD DMA mode).
    dma_map_ns: int = 23 * US

    # --- host software stack ---
    #: Syscall + VFS + page-cache lookup on the conventional path.
    block_stack_ns: int = 2_500
    #: Generic block layer + driver submission/completion.
    block_layer_ns: int = 2_500
    #: Page-cache hit service (lookup + copy-out, excluding payload copy).
    page_cache_hit_ns: int = 2_200
    #: Lightweight byte-path syscall overhead (Pipette / 2B-SSD).
    fine_stack_ns: int = 1_200
    #: Fine-grained read cache hit service (hash lookup + LRU update).
    fgrc_hit_ns: int = 1_500
    #: Fine-grained miss host work (constructor + LBA extract + requester).
    fine_miss_host_ns: int = 1_800
    #: Interrupt/completion handling for a device command.
    completion_ns: int = 1_000

    # --- DRAM ---
    dram_bw_bytes_per_ns: float = 10.0

    #: Host CPU cores available to issue I/O under pipelined load; host
    #: software work divides across them in the bottleneck throughput
    #: model (QD-1 latency is unaffected).
    host_parallelism: int = 4

    # --- block path device-side serialization penalty ---
    #: Extra device-side cost for a full-page block read: the paper notes
    #: the platform "cannot synchronously read data from parallel
    #: channels", making block-path page reads slower than byte reads.
    block_page_penalty_ns: int = 40 * US

    def __post_init__(self) -> None:
        if self.pcie_bw_bytes_per_ns <= 0:
            raise ValueError(
                f"PCIe bandwidth must be positive, got {self.pcie_bw_bytes_per_ns}"
            )
        if self.mmio_tlp_ns <= 0:
            raise ValueError(f"mmio_tlp_ns must be positive, got {self.mmio_tlp_ns}")
        if self.mmio_payload_bytes <= 0:
            raise ValueError(
                f"mmio_payload_bytes must be positive, got {self.mmio_payload_bytes}"
            )
        if self.pcie_tlp_ns < 0 or self.page_fault_ns < 0 or self.dma_map_ns < 0:
            raise ValueError("per-transaction latencies cannot be negative")
        if self.dram_bw_bytes_per_ns <= 0:
            raise ValueError(
                f"DRAM bandwidth must be positive, got {self.dram_bw_bytes_per_ns}"
            )
        if self.channel_xfer_page_ns < 0:
            raise ValueError("channel_xfer_page_ns cannot be negative")

    def nand_read(self, nand: NandType) -> int:
        """tR for the given cell type, in ns."""
        return self.nand_read_ns[nand]

    def nand_program(self, nand: NandType) -> int:
        """Page program latency for the given cell type, in ns."""
        return self.nand_program_ns[nand]

    def dram_copy_ns(self, nbytes: int) -> float:
        """Host DRAM copy cost for ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.dram_bw_bytes_per_ns


#: Bytes one Info Area record occupies in the HMB: destination address,
#: byte offset, byte length — three 32-bit fields (paper Figure 3).
INFO_ENTRY_BYTES = 12


@dataclass(frozen=True)
class CacheConfig:
    """Host memory budgets and fine-grained read cache parameters."""

    #: Total host memory shared between the page cache and the FGRC.
    shared_memory_bytes: int = 64 * MIB
    #: Initial split: bytes assigned to the fine-grained read cache.
    fgrc_bytes: int = 16 * MIB
    #: Slab size used by the FGRC slab allocator.
    slab_bytes: int = 64 * KIB
    #: Smallest slab-class item capacity.
    min_item_bytes: int = 64
    #: Largest slab-class item capacity (>= largest fine-grained read).
    max_item_bytes: int = 4096
    #: Geometric growth factor between slab-class item capacities.
    growth_factor: float = 2.0
    #: Number of records in the host/device-shared Info Area ring.
    info_area_entries: int = 1024
    #: TempBuf area size (staging for data not admitted to the cache).
    tempbuf_bytes: int = 256 * KIB

    # --- adaptive caching mechanism (paper section 3.2.2) ---
    #: Initial promotion threshold (prior accesses before an item is
    #: cached); 0 admits on first touch, adaptation raises it when the
    #: workload shows (almost) no reuse.
    initial_threshold: int = 0
    threshold_min: int = 0
    threshold_max: int = 8
    #: Reuse-ratio bounds steering threshold adaptation.
    reuse_ratio_min: float = 0.02
    reuse_ratio_max: float = 0.50
    #: Accesses between threshold adaptation steps.
    adapt_period: int = 4096
    #: Cap on ghost (data-less) tracking entries per file table.
    ghost_limit: int = 65536

    # --- adaptive slab reassignment (paper section 3.2.3) ---
    reassign_enabled: bool = True
    #: Accesses between maintenance-thread scans.
    reassign_period: int = 16384
    #: Number of consecutive idle scans before a class donates a slab.
    reassign_idle_stages: int = 2

    # --- dynamic allocation strategy (paper section 3.2.4) ---
    dynalloc_enabled: bool = True
    #: Maximum fraction of the shared budget the FGRC may grow to.
    fgrc_max_fraction: float = 0.75

    #: Seed of the cache's private RNG (random migration-donor choice,
    #: paper 3.2.1 #2).  Injected so every random draw in a run is a
    #: function of configuration, never of a global stream.
    rng_seed: int = 0xF1B377E

    def __post_init__(self) -> None:
        if self.shared_memory_bytes <= 0 or self.fgrc_bytes <= 0:
            raise ValueError("memory budgets must be positive")
        if self.min_item_bytes <= 0 or self.max_item_bytes < self.min_item_bytes:
            raise ValueError("invalid slab item size bounds")
        if self.growth_factor <= 1.0:
            raise ValueError("growth_factor must be > 1")
        if self.slab_bytes < self.max_item_bytes:
            raise ValueError("slab_bytes must hold at least one max-size item")

    @property
    def page_cache_bytes(self) -> int:
        """Initial page-cache budget (remainder of the shared memory)."""
        return self.shared_memory_bytes - self.fgrc_bytes

    @property
    def info_area_bytes(self) -> int:
        """HMB footprint of the Info Area descriptor ring."""
        return self.info_area_entries * INFO_ENTRY_BYTES

    @property
    def hmb_needed_bytes(self) -> int:
        """Total HMB the cache layout occupies (info + tempbuf + data)."""
        return self.info_area_bytes + self.tempbuf_bytes + self.fgrc_bytes


@dataclass(frozen=True)
class PipetteConfig:
    """Policy parameters of the Pipette framework itself."""

    #: Reads strictly smaller than this go down the byte-granular path.
    dispatch_threshold_bytes: int = 4096
    #: Whether the adaptive promotion threshold is active; when False
    #: every missed fine-grained read is admitted to the cache.
    adaptive_caching: bool = True
    #: Spatial prefetch (extension): on a fine-grained miss, also fetch
    #: and cache this many same-size neighbor objects.  They ride the
    #: demanded read's command — the flash page is already sensed, so
    #: the cost is only the extra link bytes.  0 disables (the paper's
    #: configuration).
    fine_prefetch_objects: int = 0


@dataclass(frozen=True)
class ReadaheadConfig:
    """Read-ahead policy of the conventional block path."""

    enabled: bool = True
    #: Initial window, in pages, when a sequential pattern is detected.
    initial_window_pages: int = 4
    #: Maximum window, in pages (128 KiB / 4 KiB = 32, the Linux default).
    max_window_pages: int = 32
    #: Extra pages speculatively read on a *random* miss.
    random_extra_pages: int = 0


@dataclass(frozen=True)
class SimConfig:
    """Top-level bundle passed to every simulated system."""

    ssd: SSDSpec = field(default_factory=SSDSpec)
    timing: TimingModel = field(default_factory=TimingModel)
    cache: CacheConfig = field(default_factory=CacheConfig)
    pipette: PipetteConfig = field(default_factory=PipetteConfig)
    readahead: ReadaheadConfig = field(default_factory=ReadaheadConfig)
    #: Host/device fabric the device is built on; see
    #: :mod:`repro.ssd.fabric` (``pcie_gen3`` | ``cxl_lmb`` |
    #: ``nvme_fdp``).  Validated when the device is constructed.
    backend: str = "pcie_gen3"
    #: Transient NAND read-fault injection (disabled by default).
    faults: "FaultModel" = field(default_factory=lambda: _default_faults())
    #: Store and verify real payload bytes (False keeps accounting only,
    #: for large benchmark runs).
    transfer_data: bool = True

    def scaled(self, **overrides: object) -> "SimConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


def _default_faults():
    from repro.ssd.faults import FaultModel

    return FaultModel()


__all__ = [
    "CacheConfig",
    "DEFAULT_NAND_PROGRAM_NS",
    "DEFAULT_NAND_READ_NS",
    "GIB",
    "KIB",
    "MIB",
    "MS",
    "NandType",
    "PipetteConfig",
    "ReadaheadConfig",
    "SSDSpec",
    "SimConfig",
    "TimingModel",
    "US",
]

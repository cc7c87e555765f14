"""Host/device fabrics: one cost record and one placement policy each.

A fabric varies along two axes:

:class:`Interconnect`
    the *transport costs*: what a bulk (DMA-style) transfer, a
    host-initiated byte read (MMIO load or coherent load), a BAR page
    fault and a DMA mapping cost.  It is a record of numbers; the
    three fabrics differ only in them;

:class:`BufferPlacement`
    the *data placement policy*: which placement handle (an NVMe FDP
    reclaim-unit handle, or the one stream of a conventional device)
    each slab class, TempBuf staging range and block write lands on,
    with per-handle accounting for the read-amplification reports.

:data:`FABRICS` names the three combinations ``SimConfig.backend``
selects:

- ``pcie_gen3``: the paper's platform, PCIe Gen3 x4 with 8 B
  non-posted MMIO loads and a DMA mapping per access (golden digests
  pin it to the pre-abstraction model);
- ``cxl_lmb``: the device buffer over CXL.mem (PAPERS.md: "LMB:
  Augmenting Memory via CXL", arXiv 2406.02039).  Byte reads are 64 B
  cacheline loads, bulk transfers are posted store streams, and
  coherent memory needs neither a BAR fault nor a DMA mapping: the
  ~23 us that separates 2B-SSD DMA from Pipette disappears, and the
  MMIO-vs-DMA crossover falls from ~1 KiB to tens of bytes;
- ``nvme_fdp``: the PCIe transport plus NVMe Flexible Data Placement
  (PAPERS.md: NVMe TP4146 analysis, arXiv 2503.11665), one handle per
  FGRC slab class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.config import TimingModel

#: CXL.mem constants (sources in docs/MODEL.md section 5): round trip
#: of one 64 B load (MemRd -> MemData), setup of a posted store stream
#: (MemWr), payload bandwidth of the x8 link, coherence granule.
CXL_LOAD_NS = 150.0
CXL_STORE_NS = 80.0
CXL_BW_BYTES_PER_NS = 16.0
CXL_CACHELINE_BYTES = 64


@dataclass(frozen=True)
class Interconnect:
    """Cost record of the host <-> device transport."""

    #: Stage name of a host-initiated byte read (the CPU stall).
    byte_read_stage: str
    #: Fixed cost of one bulk transfer (DMA descriptor / TLP batch, or
    #: a store stream's setup) and the payload rate after it.
    bulk_setup_ns: float
    bulk_bw_bytes_per_ns: float
    #: A byte read is split into transactions of at most this many
    #: bytes, each paying a full round trip.
    read_txn_bytes: int
    read_txn_ns: float
    #: Page fault to map the byte-access window before a byte read.
    fault_ns: float
    #: DMA mapping setup, per access (2B-SSD DMA mode) or once (HMB).
    map_ns: float

    def bulk_transfer_ns(self, nbytes: int) -> float:
        """Bulk (DMA-style or store-stream) transfer cost."""
        if nbytes <= 0:
            return 0.0
        return self.bulk_setup_ns + nbytes / self.bulk_bw_bytes_per_ns

    def byte_read_ns(self, nbytes: int) -> float:
        """Host-initiated byte read cost (CPU stalled for round trips)."""
        if nbytes <= 0:
            return 0.0
        return -(-nbytes // self.read_txn_bytes) * self.read_txn_ns


def pcie_interconnect(timing: TimingModel) -> Interconnect:
    """PCIe: TLP-batched DMA, non-posted MMIO loads, faults, mappings."""
    return Interconnect(
        byte_read_stage="mmio_pull",
        bulk_setup_ns=timing.pcie_tlp_ns,
        bulk_bw_bytes_per_ns=timing.pcie_bw_bytes_per_ns,
        read_txn_bytes=timing.mmio_payload_bytes,
        read_txn_ns=timing.mmio_tlp_ns,
        fault_ns=float(timing.page_fault_ns),
        map_ns=float(timing.dma_map_ns),
    )


def cxl_interconnect(timing: TimingModel) -> Interconnect:
    """CXL.mem: cacheline loads, posted stores, no fault or mapping."""
    return Interconnect(
        byte_read_stage="cxl_load",
        bulk_setup_ns=CXL_STORE_NS,
        bulk_bw_bytes_per_ns=CXL_BW_BYTES_PER_NS,
        read_txn_bytes=CXL_CACHELINE_BYTES,
        read_txn_ns=CXL_LOAD_NS,
        fault_ns=0.0,
        map_ns=0.0,
    )


class BufferPlacement:
    """Placement-handle policy plus per-handle accounting.

    The default is the conventional single-stream device: every write
    and every fine-grained destination shares handle 0, and every hook
    is an O(1) no-op.
    """

    #: Handle of conventional block writes / unclassified data.
    block_handle = 0
    #: Handle of TempBuf staging traffic (shortest-lived data).
    tempbuf_handle = 0

    def handle_for_class(self, class_index: int) -> int:
        """Placement handle of a slab class (lifetime segregation)."""
        return 0

    def stage_destination(self, dest_addr: int, handle: int) -> None:
        """Host side: remember the handle a miss destination belongs to."""

    def pop_destination(self, dest_addr: int) -> int:
        """Device side: resolve (and forget) a staged destination."""
        return self.block_handle

    def record_admission(self, handle: int, nbytes: int) -> None:
        """An item/staging range of ``nbytes`` was placed on ``handle``."""

    def record_read(self, handle: int, nbytes: int, *, pages: tuple[int, ...] = ()) -> None:
        """``nbytes`` of fine-grained payload served from ``handle``.

        ``pages`` are the flash page numbers sensed for the range: the
        per-handle flash footprint (FDP reclaim-unit segregation).
        """

    def record_write(self, handle: int, nbytes: int, *, ppn: int | None = None) -> None:
        """``nbytes`` programmed to flash on ``handle`` (page ``ppn``)."""

    def stats(self) -> dict[str, float]:
        """Per-handle metrics for reports (empty: nothing to report)."""
        return {}


#: FDP handles: 0 = block/default stream, 1 = TempBuf, 2.. = slab
#: classes, out of the 8 a typical FDP configuration advertises.
BLOCK_HANDLE = 0
TEMPBUF_HANDLE = 1
FIRST_CLASS_HANDLE = 2
DEFAULT_HANDLES = 8


class FdpPlacement(BufferPlacement):
    """Slab class -> placement handle, with per-handle accounting.

    Slab classes segregate FGRC items by size, and size correlates with
    lifetime, so each class gets its own handle; TempBuf staging (dead
    after one read) gets a dedicated one.  Per handle it records the
    admitted bytes, the fine-read bytes served, the flash pages touched
    (footprint, i.e. reclaim-unit pressure) and the programmed bytes.
    """

    block_handle = BLOCK_HANDLE
    tempbuf_handle = TEMPBUF_HANDLE

    def __init__(self) -> None:
        self._staged: dict[int, int] = {}
        self.admitted_bytes = [0] * DEFAULT_HANDLES
        self.read_bytes = [0] * DEFAULT_HANDLES
        self.written_bytes = [0] * DEFAULT_HANDLES
        #: Distinct flash pages sensed to serve each handle's fills.
        self._footprint: list[set[int]] = [set() for _ in range(DEFAULT_HANDLES)]

    def handle_for_class(self, class_index: int) -> int:
        """Round-robin slab classes over the non-reserved handles."""
        return FIRST_CLASS_HANDLE + class_index % (DEFAULT_HANDLES - FIRST_CLASS_HANDLE)

    def stage_destination(self, dest_addr: int, handle: int) -> None:
        self._staged[dest_addr] = handle

    def pop_destination(self, dest_addr: int) -> int:
        return self._staged.pop(dest_addr, BLOCK_HANDLE)

    def record_admission(self, handle: int, nbytes: int) -> None:
        self.admitted_bytes[handle] += nbytes

    def record_read(self, handle: int, nbytes: int, *, pages: tuple[int, ...] = ()) -> None:
        self.read_bytes[handle] += nbytes
        self._footprint[handle].update(pages)

    def record_write(self, handle: int, nbytes: int, *, ppn: int | None = None) -> None:
        self.written_bytes[handle] += nbytes
        if ppn is not None:
            self._footprint[handle].add(ppn)

    def stats(self) -> dict[str, float]:
        """``fdp_``-prefixed per-handle breakdown for ``cache_stats``."""
        stats: dict[str, float] = {
            "fdp_handles": float(DEFAULT_HANDLES),
            "fdp_staged_pending": float(len(self._staged)),
        }
        for handle in range(DEFAULT_HANDLES):
            footprint = len(self._footprint[handle])
            admitted = self.admitted_bytes[handle]
            read = self.read_bytes[handle]
            written = self.written_bytes[handle]
            if not (admitted or read or written or footprint):
                continue  # quiet handles stay out of the report
            stats[f"fdp_h{handle}_admitted_bytes"] = float(admitted)
            stats[f"fdp_h{handle}_read_bytes"] = float(read)
            stats[f"fdp_h{handle}_written_bytes"] = float(written)
            stats[f"fdp_h{handle}_footprint_pages"] = float(footprint)
        return stats


#: Fabric name -> (interconnect builder, placement class).
FABRICS: dict[str, tuple[Callable[[TimingModel], Interconnect], type[BufferPlacement]]] = {
    "cxl_lmb": (cxl_interconnect, BufferPlacement),
    "nvme_fdp": (pcie_interconnect, FdpPlacement),
    "pcie_gen3": (pcie_interconnect, BufferPlacement),
}


def available_backends() -> list[str]:
    """Names accepted by :func:`build_fabric`."""
    return sorted(FABRICS)


def build_fabric(name: str, timing: TimingModel) -> tuple[Interconnect, BufferPlacement]:
    """The interconnect and a fresh placement of the fabric ``name``.

    Raises ``KeyError`` naming the known fabrics on an unknown name,
    mirroring :func:`repro.system.build_system`.
    """
    entry = FABRICS.get(name)
    if entry is None:
        raise KeyError(f"unknown backend {name!r}; choose from {available_backends()}")
    interconnect, placement = entry
    return interconnect(timing), placement()


__all__ = [
    "BufferPlacement",
    "DEFAULT_HANDLES",
    "FABRICS",
    "FIRST_CLASS_HANDLE",
    "FdpPlacement",
    "Interconnect",
    "TEMPBUF_HANDLE",
    "available_backends",
    "build_fabric",
    "cxl_interconnect",
    "pcie_interconnect",
]

"""Host/device link: transfers, mappings, MMIO loads, traffic metering.

Every byte that crosses the host/device boundary is recorded here; the
paper's "I/O traffic" tables (Tables 2 and 3, Figure 9b) are read
directly off this meter.

The link is also the one transport object of the device.  Besides
bulk DMA it models the two ways a host reaches device-side bytes that
the paper compares (section 3.1.1):

- **Pipette's HMB path** establishes one persistent DMA mapping at
  initialization (:meth:`PcieLink.establish_persistent_mapping`);
  after that transfers pay only link time;
- **2B-SSD style CMB access** pays on every read: either a DMA
  mapping set up on the critical path
  (:meth:`PcieLink.pull_per_access`, the 21.79-25.06 us gap the paper
  measures over Pipette w/o cache) or a page fault plus non-posted
  MMIO loads of at most 8 bytes (:meth:`PcieLink.mmio_pull`).

Link transfers that belong to a storage request are recorded as
stages in the active :class:`repro.sim.trace.StageTrace`; the
``*_ns`` methods remain as pure cost/metering primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.stats import TrafficMeter
from repro.sim.trace import Tracer
from repro.ssd.fabric import Interconnect


@dataclass
class PcieLink:
    """Shared host/device link, costed by a fabric's cost record.

    Despite the historical name, the link is fabric-agnostic: transfer
    costs come from the :class:`Interconnect` record, while traffic
    metering and stage recording, which every fabric shares, stay
    here.
    """

    interconnect: Interconnect
    traffic: TrafficMeter = field(default_factory=TrafficMeter)
    map_established: bool = False
    #: Persistent plus per-access DMA mappings set up so far.
    mappings_created: int = 0
    #: Page faults taken to map the MMIO window.
    faults_taken: int = 0

    # --- traced transfers (record into the active request) -------------
    def dma_to_host(
        self,
        tracer: Tracer,
        nbytes: int,
        *,
        name: str = "pcie_xfer",
        latency: bool = True,
    ) -> float:
        """Device-to-host DMA recorded as a stage of the active trace.

        ``latency=False`` marks transfers that occupy the link but are
        off the request's QD-1 critical path (read-ahead, MMIO payload
        under CPU-stall accounting).
        """
        ns = self.dma_to_host_ns(nbytes)
        if ns:
            tracer.pcie(name, ns, latency=latency)
        return ns

    def dma_to_device(
        self,
        tracer: Tracer,
        nbytes: int,
        *,
        name: str = "pcie_xfer",
        latency: bool = True,
    ) -> float:
        """Host-to-device DMA recorded as a stage of the active trace."""
        ns = self.dma_to_device_ns(nbytes)
        if ns:
            tracer.pcie(name, ns, latency=latency)
        return ns

    def establish_persistent_mapping(self, tracer: Tracer) -> float:
        """One-time HMB mapping setup (initialization stage); returns cost.

        Recorded as an uncharged observability stage: the setup happens
        before any request and is deliberately off both the latency and
        the throughput views (paper 3.1.1 — the point of HMB over CMB).
        A second call costs nothing.
        """
        if self.map_established:
            return 0.0
        self.map_established = True
        self.mappings_created += 1
        ns = self.interconnect.map_ns
        if ns:
            tracer.host("hmb_setup", ns, latency=False, charged=False)
        return ns

    def pull_per_access(self, tracer: Tracer, nbytes: int) -> None:
        """Per-access-mapped device-to-host pull (2B-SSD DMA mode).

        Records the mapping setup as host work and the payload as link
        time, both on the request's critical path — the ~23 us the
        paper attributes to mapping on every access.  A coherent fabric
        has no mapping to set up: the pull degenerates to link time.
        """
        map_ns = self.interconnect.map_ns
        if map_ns:
            self.mappings_created += 1
            tracer.host("dma_map", map_ns)
        self.dma_to_host(tracer, nbytes)

    def mmio_pull(self, tracer: Tracer, nbytes: int) -> None:
        """Read ``nbytes`` out of the BAR-mapped window (2B-SSD MMIO mode).

        The page fault (PCIe only — a coherent fabric needs none, and
        the fault counter then stays untouched) and the load stalls are
        host work on the critical path; the payload occupies the link
        but is covered by the stall time, so its link stage is off the
        latency path.
        """
        interconnect = self.interconnect
        fault = interconnect.fault_ns
        if fault:
            self.faults_taken += 1
            tracer.host("mmio_fault", fault)
        tracer.host(interconnect.byte_read_stage, self.mmio_read_ns(nbytes))
        tracer.pcie("pcie_xfer", interconnect.bulk_transfer_ns(nbytes), latency=False)

    # --- cost/metering primitives --------------------------------------
    def dma_to_host_ns(self, nbytes: int) -> float:
        """Device-to-host bulk transfer: meter traffic, return time."""
        if nbytes < 0:
            raise ValueError("negative transfer")
        if nbytes == 0:
            return 0.0
        self.traffic.device_read(nbytes)
        return self.interconnect.bulk_transfer_ns(nbytes)

    def dma_to_device_ns(self, nbytes: int) -> float:
        """Host-to-device bulk transfer (writes, Info Area doorbells)."""
        if nbytes < 0:
            raise ValueError("negative transfer")
        if nbytes == 0:
            return 0.0
        self.traffic.device_write(nbytes)
        return self.interconnect.bulk_transfer_ns(nbytes)

    def mmio_read_ns(self, nbytes: int) -> float:
        """Host-initiated byte read out of device memory.

        On PCIe the read is split into at most ``mmio_payload_bytes``
        (8 B) non-posted transactions, each paying a full round trip —
        the reason 2B-SSD MMIO latency grows linearly with request size
        (paper Fig. 8).  A coherent fabric (``cxl_lmb``) instead pays
        one load round trip per cacheline.
        """
        if nbytes < 0:
            raise ValueError("negative transfer")
        if nbytes == 0:
            return 0.0
        self.traffic.device_read(nbytes)
        return self.interconnect.byte_read_ns(nbytes)


__all__ = ["PcieLink"]

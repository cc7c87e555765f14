"""DMA engine model with explicit mapping setup cost.

Two regimes matter for the paper:

- **2B-SSD DMA mode** sets up a DMA mapping *per access* on the critical
  path (``map_ns`` every read) — the 21.79-25.06 us gap the paper
  measures over Pipette w/o cache.
- **Pipette's HMB path** establishes the mapping once when the HMB
  feature is enabled at initialization; after that transfers pay only
  link time (``map_established`` is flipped once and stays).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TimingModel
from repro.sim.trace import Tracer
from repro.ssd.pcie import PcieLink


@dataclass
class DmaEngine:
    """Device DMA engine pushing payloads over a :class:`PcieLink`."""

    timing: TimingModel
    link: PcieLink
    map_established: bool = False
    mappings_created: int = 0

    def establish_persistent_mapping(self, tracer: Tracer | None = None) -> float:
        """One-time HMB mapping setup (initialization stage); returns cost.

        Recorded as an uncharged observability stage: the setup happens
        before any request and is deliberately off both the latency and
        the throughput views (paper 3.1.1 — the point of HMB over CMB).
        """
        if self.map_established:
            return 0.0
        self.map_established = True
        self.mappings_created += 1
        ns = self.link.interconnect.persistent_map_ns()
        if tracer is not None and ns:
            tracer.host("hmb_setup", ns, latency=False, charged=False)
        return ns

    def pull_per_access(self, tracer: Tracer, nbytes: int) -> None:
        """Per-access-mapped device-to-host pull (2B-SSD DMA mode).

        Records the mapping setup as host work and the payload as link
        time, both on the request's critical path — the ~23 us the
        paper attributes to mapping on every access.  A coherent fabric
        has no mapping to set up: the pull degenerates to link time.
        """
        map_ns = self.link.interconnect.per_access_map_ns()
        if map_ns:
            self.mappings_created += 1
            tracer.host("dma_map", map_ns)
        self.link.dma_to_host(tracer, nbytes)

    def transfer_to_host_ns(self, nbytes: int, *, per_access_map: bool = False) -> float:
        """DMA ``nbytes`` device->host.

        With ``per_access_map`` the mapping cost is paid on this call
        (2B-SSD DMA mode); otherwise a persistent mapping must already
        exist (Pipette's HMB) or the transfer is a plain PRP transfer
        (conventional block path, whose buffers the driver premaps).
        """
        setup = 0.0
        if per_access_map:
            setup = self.link.interconnect.per_access_map_ns()
            if setup:
                self.mappings_created += 1
        return setup + self.link.dma_to_host_ns(nbytes)

    def transfer_to_device_ns(self, nbytes: int) -> float:
        """DMA ``nbytes`` host->device (write payloads)."""
        return self.link.dma_to_device_ns(nbytes)


__all__ = ["DmaEngine"]

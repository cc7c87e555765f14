"""The assembled SSD device: one object the host systems talk to.

``SSDDevice`` wires the NAND array, FTL, controller, the host/device
link and the HMB region together, and offers the two kinds of read the
paper compares:

- :meth:`block_read` -- the conventional page-granular path (used by
  Block I/O and by Pipette's coarse-grained dispatch); it senses each
  distinct page once, in ascending LBA order, and moves them to the
  host in one transfer;
- byte-granular reads through :class:`repro.ssd.controller.ByteRead`:
  Pipette's Read Engine (see :mod:`repro.core.engine`) for the HMB
  path, and the per-access CMB pulls of 2B-SSD MMIO/DMA and the
  ``pipette-cmb`` variant (:class:`repro.ssd.pcie.PcieLink`).

Timing contract: device methods record :class:`repro.sim.trace.Stage`
entries into the active request's :class:`~repro.sim.trace.StageTrace`,
which simultaneously feeds the pipelined throughput ledger and the
queue-depth-1 latency view; host layers record their own stages into
the same trace.  The block path returns data only: a caller that wants
an operation's latency reads it off the trace it opened.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.sim.resources import ResourceModel
from repro.sim.stats import TrafficMeter
from repro.sim.trace import Tracer
from repro.ssd.controller import SSDController
from repro.ssd.fabric import build_fabric
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.hmb import HostMemoryBuffer
from repro.ssd.nand import FlashArray
from repro.ssd.pcie import PcieLink


class SSDDevice:
    """Facade over the simulated SSD."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.resources = ResourceModel(
            channels=config.ssd.channels,
            host_parallelism=config.timing.host_parallelism,
        )
        #: Shared stage tracer: every layer of the stack records into
        #: the active request's trace through this object, and charged
        #: stages fold into ``resources`` as they are recorded.
        self.tracer = Tracer(self.resources)
        self.nand = FlashArray.create(config.ssd, config.timing)
        self.ftl = FlashTranslationLayer(nand=self.nand)
        #: The fabric's cost record and placement (``config.backend``);
        #: unknown names raise KeyError here, at construction.
        interconnect, self.placement = build_fabric(config.backend, config.timing)
        self.link = PcieLink(interconnect=interconnect)
        self.hmb = HostMemoryBuffer(size=config.ssd.mapping_region_bytes)
        self.controller = SSDController(
            config=config,
            nand=self.nand,
            ftl=self.ftl,
            tracer=self.tracer,
            placement=self.placement,
        )

    # --- initialization features ------------------------------------------
    def enable_hmb(self) -> float:
        """Enable the HMB: the one-time persistent DMA mapping.

        Returns the setup latency (paid once at initialization, *not*
        on the critical path of any read — the point of Pipette's HMB
        choice over CMB, paper 3.1.1); a second call returns 0.0.
        """
        return self.link.establish_persistent_mapping(self.tracer)

    # --- traffic -----------------------------------------------------------
    @property
    def traffic(self) -> TrafficMeter:
        return self.link.traffic

    # --- conventional block path --------------------------------------------
    def block_read(
        self,
        lbas: list[int],
        *,
        background_lbas: list[int] | None = None,
    ) -> dict[int, bytes | None]:
        """Read full pages; returns the content of every page by lba.

        ``background_lbas`` are read-ahead pages.  Demanded pages are
        on the request's QD-1 critical path;
        background (read-ahead) pages occupy NAND channels and the link
        — and count as I/O traffic — but complete asynchronously, so
        they do not extend the request's latency.
        """
        page_size = self.config.ssd.page_size
        timing = self.config.timing
        pages: dict[int, bytes | None] = {}
        if lbas:
            ordered = sorted(set(lbas))
            contents, nand_ns_each = self.controller.block_sense(ordered)
            pages = dict(zip(ordered, contents))
            self.controller.record_array_phase(nand_ns_each)
            self.link.dma_to_host(self.tracer, page_size * len(ordered))
            # Interrupt/completion handling extends QD-1 latency but
            # overlaps other requests' work under pipelining.
            self.tracer.host("completion", timing.completion_ns, charged=False)

        for lba in background_lbas or []:
            contents, _ = self.controller.block_sense((lba,))
            pages[lba] = contents[0]
            self.link.dma_to_host(
                self.tracer, page_size, name="readahead_xfer", latency=False
            )
        return pages

    # --- write path ---------------------------------------------------------
    def block_write(self, writes: list[tuple[int, bytes]]) -> None:
        """Write full pages.

        Like a real NVMe SSD, writes are acknowledged from the device's
        DRAM write buffer: the visible latency is the PCIe transfer plus
        completion, while the NAND program happens in the background
        (it still occupies the flash channel in the throughput model).
        """
        page_size = self.config.ssd.page_size
        for lba, data in writes:
            if len(data) != page_size:
                raise ValueError("block_write requires full pages")
            self.link.dma_to_device(self.tracer, page_size)
            self.controller.program_page(lba, data)  # channel stage, off latency
        if writes:
            self.tracer.host(
                "completion", self.config.timing.completion_ns, charged=False
            )


__all__ = ["SSDDevice"]

"""The assembled SSD device: one object the host systems talk to.

``SSDDevice`` wires the NAND array, FTL, controller, PCIe link, DMA and
MMIO models, CMB and HMB regions, and an NVMe queue pair together, and
offers the two kinds of read the paper compares:

- :meth:`block_read` -- the conventional page-granular path (used by
  Block I/O and by Pipette's coarse-grained dispatch); it merges the
  pages into contiguous runs and submits one NVMe READ per run;
- byte-granular reads through :class:`repro.ssd.controller.ByteRead`:
  ``FINE_GRAINED_READ`` NVMe commands handled by the installed Read
  Engine (see :mod:`repro.core.engine`) for Pipette's HMB path, and
  CMB staging for 2B-SSD MMIO/DMA and the ``pipette-cmb`` variant.

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
from repro.ssd.admin import FEATURE_HMB, AdminState
from repro.ssd.backends import build_backend
from repro.ssd.cmb import ControllerMemoryBuffer
from repro.ssd.controller import SSDController
from repro.ssd.dma import DmaEngine
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.hmb import HostMemoryBuffer
from repro.ssd.mmio import MmioWindow
from repro.ssd.nand import FlashArray
from repro.ssd.nvme import NvmeCommand, NvmeOpcode, NvmeQueuePair
from repro.ssd.pcie import PcieLink


def _contiguous_runs(lbas: list[int]) -> list[tuple[int, int]]:
    """Split page LBAs into sorted contiguous (start, count) runs."""
    if not lbas:
        return []
    ordered = sorted(set(lbas))
    runs: list[tuple[int, int]] = []
    start = ordered[0]
    count = 1
    for lba in ordered[1:]:
        if lba == start + count:
            count += 1
        else:
            runs.append((start, count))
            start, count = lba, 1
    runs.append((start, count))
    return runs


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
        #: The interconnect/placement backend (``config.backend``);
        #: unknown names raise KeyError here, at construction.
        self.backend = build_backend(config.backend, config.timing)
        self.placement = self.backend.placement
        self.link = PcieLink(
            timing=config.timing, interconnect=self.backend.interconnect
        )
        self.dma = DmaEngine(timing=config.timing, link=self.link)
        self.mmio = MmioWindow(timing=config.timing, link=self.link)
        self.cmb = ControllerMemoryBuffer(
            size=max(config.ssd.page_size, config.ssd.read_buffer_pages * config.ssd.page_size),
            page_size=config.ssd.page_size,
        )
        self.hmb = HostMemoryBuffer(size=config.ssd.mapping_region_bytes)
        self.controller = SSDController(
            config=config,
            nand=self.nand,
            ftl=self.ftl,
            tracer=self.tracer,
            placement=self.placement,
        )
        self.queue = NvmeQueuePair(executor=self.controller.execute)
        self.admin = AdminState(spec=config.ssd)

    # --- initialization features ------------------------------------------
    def enable_hmb(self, grant_bytes: int | None = None) -> float:
        """Enable the HMB feature: one-time persistent DMA mapping.

        Runs the real admin protocol — IDENTIFY to learn the preferred
        HMB size, SET FEATURES (0x0D) to grant it — then establishes
        the persistent mapping.  Returns the setup latency (paid once
        at initialization, *not* on the critical path of any read —
        the point of Pipette's HMB choice over CMB, paper 3.1.1).
        """
        identity = self.admin.identify()
        self.admin.set_feature(
            FEATURE_HMB,
            grant_bytes if grant_bytes is not None else identity.hmb_preferred_bytes,
        )
        return self.dma.establish_persistent_mapping(self.tracer)

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
        per_page_ns: list[float] = []
        for start, count in _contiguous_runs(lbas):
            completion = self.queue.submit(
                NvmeCommand(opcode=NvmeOpcode.READ, lba=start, nlb=count)
            )
            if not completion.success:
                raise RuntimeError(f"READ of [{start}, {start + count}) failed")
            run_pages, nand_ns_each = completion.result
            for index, lba in enumerate(range(start, start + count)):
                pages[lba] = run_pages[index]
                per_page_ns.append(nand_ns_each[index])

        if per_page_ns:
            self.controller.record_array_phase(per_page_ns)
            self.link.dma_to_host(self.tracer, page_size * len(per_page_ns))
            # Interrupt/completion handling extends QD-1 latency but
            # overlaps other requests' work under pipelining.
            self.tracer.host("completion", timing.completion_ns, charged=False)

        for lba in background_lbas or []:
            ppn = self.ftl.translate(lba)
            content, _ = self.controller.sense_ppn(lba, ppn)
            penalty = self.controller.block_page_extra_ns()
            self.tracer.channel(self.nand.channel_of(ppn), "block_penalty", penalty)
            pages[lba] = content
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

    # --- NVMe command submission ----------------------------------------------
    def submit(self, command: NvmeCommand):
        """Submit a raw NVMe command through the queue pair."""
        return self.queue.submit(command)

    def install_fine_read_engine(self, engine) -> None:
        """Install Pipette's firmware Read Engine extension."""
        self.controller.install_extension(NvmeOpcode.FINE_GRAINED_READ, engine)


__all__ = ["SSDDevice"]

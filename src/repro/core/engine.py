"""Device-side Fine-Grained Read Engine (paper section 3.1.2, Figure 4).

Installed in the controller as the handler for the vendor
``FINE_GRAINED_READ`` opcode.  For each reconstructed request it:

1. loads the needed NAND pages into the pre-allocated read buffer
   (charging the owning flash channels);
2. consumes Info Area records to learn each range's destination
   address (assigned by the host simultaneously with the flash read);
3. extracts the demanded byte ranges and DMAs them to their HMB
   destinations, bumping the Info Area head so the host can observe
   completion.

Only demanded bytes cross the link — the source of Pipette's I/O
traffic savings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SimConfig
from repro.core.read_cache.info_area import InfoArea
from repro.ssd.controller import SSDController
from repro.ssd.hmb import HostMemoryBuffer
from repro.ssd.nvme import NvmeCommand, NvmeCompletion
from repro.ssd.pcie import PcieLink


@dataclass
class EngineResult:
    """Timing decomposition of one fine-grained read command."""

    nand_ns_each: list[float]
    transfer_ns: float
    bytes_moved: int


class FineGrainedReadEngine:
    """Firmware extension executing reconstructed fine-grained reads."""

    def __init__(
        self,
        config: SimConfig,
        controller: SSDController,
        link: PcieLink,
        hmb: HostMemoryBuffer,
        info_area: InfoArea,
    ) -> None:
        self.config = config
        self.controller = controller
        self.link = link
        self.hmb = hmb
        self.info_area = info_area
        self.commands_handled = 0
        self.ranges_served = 0

    def handle(self, command: NvmeCommand) -> NvmeCompletion:
        """Execute one ``FINE_GRAINED_READ`` command."""
        page_size = self.config.ssd.page_size
        tracer = self.controller.tracer
        nand_ns_each: list[float] = []
        transfer_ns = 0.0
        bytes_moved = 0
        #: Pages already sensed by *this* command (the read buffer holds
        #: them for the command's duration): each flash page pays tR once
        #: however many ranges of the request it serves.
        sensed: dict[int, bytes | None] = {}

        placement = self.controller.placement
        for fine_range in command.ranges:
            # Phase 1: load NAND pages into the read buffer.
            span = fine_range.offset_in_page + fine_range.length
            pages = -(-span // page_size)
            staged: list[bytes | None] = []
            range_ppns: list[int] = []
            for page_offset in range(pages):
                lba = fine_range.lba + page_offset
                range_ppns.append(self.controller.ftl.translate(lba))
                if lba in sensed:
                    staged.append(sensed[lba])
                    continue
                content, nand_ns = self.controller.sense_page(lba)
                sensed[lba] = content
                staged.append(content)
                nand_ns_each.append(nand_ns)

            # Phase 2: consume the Info record assigned by the host.
            record = self.info_area.consume()
            if (
                record.dest_addr != fine_range.dest_addr
                or record.byte_length != fine_range.length
            ):
                return NvmeCompletion(cid=command.cid, status=0x02)
            # Resolve the destination's placement handle (staged by the
            # host with the Info record) and account the served range
            # against it — on an FDP backend this is the per-handle
            # flash-footprint segregation.
            handle = placement.pop_destination(record.dest_addr)
            placement.record_read(
                handle, fine_range.length, pages=tuple(range_ppns)
            )

            # Phase 3: extract the range and DMA it to its destination.
            if self.config.transfer_data:
                joined = b"".join(page or b"" for page in staged)
                payload = joined[
                    fine_range.offset_in_page : fine_range.offset_in_page + fine_range.length
                ]
                self.hmb.write(record.dest_addr, payload)
            piece_ns = self.link.dma_to_host(tracer, fine_range.length)
            transfer_ns += piece_ns
            bytes_moved += fine_range.length
            self.ranges_served += 1

        self.controller.record_array_phase(nand_ns_each)
        self.commands_handled += 1
        result = EngineResult(
            nand_ns_each=nand_ns_each, transfer_ns=transfer_ns, bytes_moved=bytes_moved
        )
        return NvmeCompletion(cid=command.cid, result=result)


__all__ = ["EngineResult", "FineGrainedReadEngine"]

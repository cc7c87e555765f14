"""Device-side Fine-Grained Read Engine (paper section 3.1.2, Figure 4).

Called by the host with the ranges the Constructor built.  For each
reconstructed request it:

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

from repro.config import SimConfig
from repro.core.constructor import FineReadRange
from repro.core.read_cache.info_area import InfoArea
from repro.ssd.controller import ByteRead, SSDController
from repro.ssd.hmb import HostMemoryBuffer
from repro.ssd.pcie import PcieLink


class FineGrainedReadEngine:
    """Device firmware executing reconstructed fine-grained reads."""

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

    def read(self, ranges: list[FineReadRange]) -> None:
        """Execute one reconstructed read.

        Raises ``RuntimeError`` if an Info record does not match its
        range (the host and device disagree on the ring's contents).
        """
        tracer = self.controller.tracer
        placement = self.controller.placement
        read = ByteRead(self.controller)
        for fine_range in ranges:
            # Phase 1: load NAND pages into the read buffer.
            payload, ppns = read.extract(
                fine_range.lba, fine_range.offset_in_page, fine_range.length
            )

            # Phase 2: consume the Info record assigned by the host.
            record = self.info_area.consume()
            if (
                record.dest_addr != fine_range.dest_addr
                or record.byte_length != fine_range.length
            ):
                raise RuntimeError(
                    f"Info record {record} does not match range {fine_range}"
                )
            # Resolve the destination's placement handle (staged by the
            # host with the Info record) and account the served range
            # against it — on an FDP backend this is the per-handle
            # flash-footprint segregation.
            handle = placement.pop_destination(record.dest_addr)
            placement.record_read(handle, fine_range.length, pages=tuple(ppns))

            # Phase 3: DMA the extracted range to its destination.
            if payload is not None:
                self.hmb.write(record.dest_addr, payload)
            self.link.dma_to_host(tracer, fine_range.length)
            self.ranges_served += 1

        read.finish()
        self.commands_handled += 1


__all__ = ["FineGrainedReadEngine"]

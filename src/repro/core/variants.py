"""Framework variants used by the ablation studies.

``PipetteCmbSystem`` answers the design question the paper raises in
section 3.1.1: what if Pipette's fine-grained read cache were fed
through the **CMB** byte interface (as 2B-SSD and FlatFlash use) instead
of the HMB?  The cache logic is identical; only the miss transfer
differs — the device stages the NAND page in controller memory and the
host must set up a DMA mapping *per access* before pulling the demanded
bytes out and storing them into the cache buffer itself.  The delta
against ``pipette`` isolates the value of the persistent HMB mapping.
"""

from __future__ import annotations

from repro.core.framework import PipetteSystem
from repro.ssd.controller import ByteRead
from repro.system import register_system


@register_system
class PipetteCmbSystem(PipetteSystem):
    """Pipette with a CMB-based (per-access-mapped) byte interface."""

    NAME = "pipette-cmb"

    def _miss_transfer(
        self,
        inode,
        offset: int,
        size: int,
        dest_addr: int,
        *,
        prefetch: list[tuple[int, int, int]] | None = None,
    ) -> None:
        timing = self.config.timing
        device = self.device
        tracer = device.tracer
        requests = [(offset, size, dest_addr)] + list(prefetch or [])

        # Device side: stage each needed page in the CMB once per
        # command (like the Read Engine's buffer).
        read = ByteRead(device.controller)
        total_bytes = 0
        placement = device.placement
        for request_offset, request_size, request_dest in requests:
            chunks: list[bytes] = []
            request_ppns: list[int] = []
            for piece in self.fs.extract_ranges(inode, request_offset, request_size):
                payload, ppns = read.extract(piece.lba, piece.offset_in_page, piece.length)
                request_ppns.extend(ppns)
                if payload is not None:
                    chunks.append(payload)
            if self.config.transfer_data:
                device.hmb.write(request_dest, b"".join(chunks))
            # This variant bypasses the Read Engine, so it resolves the
            # staged placement handle itself (same contract: one pop
            # and one read record per requested range).
            handle = placement.pop_destination(request_dest)
            placement.record_read(handle, request_size, pages=tuple(request_ppns))
            total_bytes += request_size
        read.finish()

        # Host side: per-access DMA mapping (the cost HMB avoids), pull
        # the demanded bytes over the link, land them in the cache.
        device.link.pull_per_access(tracer, total_bytes)

        if self.config.transfer_data:
            tracer.host("dram_copy", timing.dram_copy_ns(total_bytes))


__all__ = ["PipetteCmbSystem"]

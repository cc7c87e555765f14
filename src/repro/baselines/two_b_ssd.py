"""2B-SSD: dual byte/block-addressable SSD (Bae et al., ISCA'18).

The state-of-the-art fine-grained baseline the paper compares against.
Reads are served through the byte-addressable CMB interface:

1. the controller senses the NAND page(s) into the CMB (the sense is
   modelled; the staged bytes themselves are not kept);
2. the host pulls the demanded bytes out, either

   - **MMIO mode**: after a page fault maps the BAR window, with
     non-posted loads of at most 8 bytes each (latency grows linearly
     with request size — paper Fig. 8), or
   - **DMA mode**: after a per-access DMA mapping is set up on the
     critical path (the constant ~23 us the paper attributes to it).

There is *no host-side caching* in either mode (paper section 2.2), so
every access pays the full device round trip, but only demanded bytes
cross the link (I/O traffic = requested bytes exactly — Tables 2/3).
"""

from __future__ import annotations

from repro.baselines._direct_write import direct_write
from repro.kernel.vfs import OpenFile
from repro.ssd.controller import ByteRead
from repro.system import StorageSystem, register_system


class _TwoBSSDBase(StorageSystem):
    """Shared CMB staging logic of both 2B-SSD modes."""

    def _read(self, entry: OpenFile, offset: int, size: int) -> bytes | None:
        timing = self.config.timing
        device = self.device
        tracer = device.tracer
        inode = entry.inode

        tracer.host("fine_stack", timing.fine_stack_ns)

        # Stage every needed page in the CMB (device-internal path);
        # each sense records its channel occupancy in the trace.
        read = ByteRead(device.controller)
        chunks: list[bytes] = []
        for piece in self.fs.extract_ranges(inode, offset, size):
            payload, _ = read.extract(piece.lba, piece.offset_in_page, piece.length)
            if payload is not None:
                chunks.append(payload)
        read.finish()

        self._host_pull(size)
        tracer.host("completion", timing.completion_ns)

        data = b"".join(chunks) if self.config.transfer_data else None
        if data is not None and len(data) != size:
            raise RuntimeError(f"2B-SSD returned {len(data)} of {size} bytes")
        return data

    def _host_pull(self, size: int) -> None:
        """Mode-specific transfer of demanded bytes out of the CMB."""
        raise NotImplementedError

    def _write(self, entry: OpenFile, offset: int, data: bytes) -> None:
        direct_write(self.device, self.fs, entry.inode, offset, data)

    def cache_stats(self) -> dict[str, float]:
        return {
            "page_cache_hit_ratio": 0.0,
            "page_cache_usage_bytes": 0.0,
            "fgrc_hit_ratio": 0.0,
            "fgrc_usage_bytes": 0.0,
        }


@register_system
class TwoBSSDMmioSystem(_TwoBSSDBase):
    """2B-SSD reading the CMB through MMIO loads."""

    NAME = "2b-ssd-mmio"

    def _host_pull(self, size: int) -> None:
        # Non-posted loads stall the issuing CPU for the full round
        # trips (that is the latency cost); under pipelined load other
        # cores keep issuing, so the stall is host work, while the link
        # itself only carries the payload bytes (off the latency path).
        self.device.link.mmio_pull(self.device.tracer, size)


@register_system
class TwoBSSDDmaSystem(_TwoBSSDBase):
    """2B-SSD pulling from the CMB with a per-access DMA mapping."""

    NAME = "2b-ssd-dma"

    def _host_pull(self, size: int) -> None:
        # Mapping setup on the critical path, then the payload transfer.
        self.device.link.pull_per_access(self.device.tracer, size)


__all__ = ["TwoBSSDDmaSystem", "TwoBSSDMmioSystem"]

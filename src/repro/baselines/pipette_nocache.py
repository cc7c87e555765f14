"""Pipette without the fine-grained read cache ("Pipette w/o cache").

Keeps Pipette's HMB-based byte-addressable path — the persistent DMA
mapping established at initialization means no per-access setup cost —
but every read still goes to flash: only the demanded bytes cross the
link (traffic = requested bytes), and latency is the full NAND round
trip.  The gap between this system and full Pipette isolates the value
of the fine-grained read cache in the paper's figures.
"""

from __future__ import annotations

from repro.baselines._direct_write import direct_write
from repro.config import SimConfig
from repro.kernel.vfs import OpenFile
from repro.ssd.controller import ByteRead
from repro.system import StorageSystem, register_system


@register_system
class PipetteNoCacheSystem(StorageSystem):
    """Pipette's byte path with caching disabled."""

    NAME = "pipette-nocache"

    def __init__(self, config: SimConfig) -> None:
        super().__init__(config)
        # HMB feature negotiation: persistent mapping, off the read path.
        self.device.enable_hmb()

    def _read(self, entry: OpenFile, offset: int, size: int) -> bytes | None:
        timing = self.config.timing
        device = self.device
        tracer = device.tracer
        inode = entry.inode

        tracer.host("fine_stack", timing.fine_stack_ns)
        tracer.host("fine_miss_host", timing.fine_miss_host_ns)

        read = ByteRead(device.controller)
        chunks: list[bytes] = []
        for piece in self.fs.extract_ranges(inode, offset, size):
            payload, _ = read.extract(piece.lba, piece.offset_in_page, piece.length)
            if payload is not None:
                chunks.append(payload)
        read.finish()

        device.link.dma_to_host(tracer, size)
        tracer.host("completion", timing.completion_ns)

        data = b"".join(chunks) if self.config.transfer_data else None
        if data is not None and len(data) != size:
            raise RuntimeError(f"byte path returned {len(data)} of {size} bytes")
        return data

    def _write(self, entry: OpenFile, offset: int, data: bytes) -> None:
        direct_write(self.device, self.fs, entry.inode, offset, data)

    def cache_stats(self) -> dict[str, float]:
        return {
            "page_cache_hit_ratio": 0.0,
            "page_cache_usage_bytes": 0.0,
            "fgrc_hit_ratio": 0.0,
            "fgrc_usage_bytes": 0.0,
        }


__all__ = ["PipetteNoCacheSystem"]

"""Conventional Block I/O system (the paper's normalization baseline).

Every read — however small — travels the full page-granular path of
paper section 2.1: VFS, page cache with read-ahead, block-layer merge,
NVMe driver, device.  Fine-grained reads therefore pull whole 4 KiB
pages across the link and promote them into the page cache.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.kernel.page_cache import PageCache
from repro.kernel.vfs import BlockReadPath, OpenFile
from repro.system import StorageSystem, register_system


@register_system
class BlockIOSystem(StorageSystem):
    """Baseline: the unmodified traditional I/O framework."""

    NAME = "block-io"

    def __init__(self, config: SimConfig) -> None:
        super().__init__(config)
        # The whole shared host-memory budget belongs to the page cache.
        self.page_cache = PageCache(
            capacity_bytes=config.cache.shared_memory_bytes,
            page_size=config.ssd.page_size,
        )
        self.block_path = BlockReadPath(config, self.device, self.fs, self.page_cache)

    def _read(self, entry: OpenFile, offset: int, size: int) -> bytes | None:
        return self.block_path.read(entry, offset, size)

    def _write(self, entry: OpenFile, offset: int, data: bytes) -> None:
        self.block_path.write(entry, offset, data)

    def _fsync(self, entry: OpenFile) -> None:
        self.block_path.fsync(entry)

    def cache_stats(self) -> dict[str, float]:
        return {
            "page_cache_hit_ratio": self.page_cache.hit_ratio,
            "page_cache_usage_bytes": float(self.page_cache.usage_bytes),
            "page_cache_peak_bytes": float(self.page_cache.peak_usage_bytes),
            "fgrc_hit_ratio": 0.0,
            "fgrc_usage_bytes": 0.0,
        }


__all__ = ["BlockIOSystem"]

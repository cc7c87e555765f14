"""The full Pipette framework (``pipette`` in the registry).

End-to-end read flow (paper Figure 2):

1. VFS receives the read; the page cache is probed first (a write may
   have left fresher data there — the consistency rule of 3.1.3).
2. The **Detector** checks byte-datapath permission (the
   ``O_FINE_GRAINED`` open flag) and the **Dispatcher** routes by size:
   page-sized and larger reads keep the conventional block path
   (read-ahead and page cache intact), smaller reads of permitted files
   enter the fine-grained path.  Both steps are the one predicate in
   :meth:`PipetteSystem._read`.
3. The **Fine-Grained Read Cache** is probed via the per-file hash
   lookup table; a hit is served from host DRAM.
4. On a miss the **Constructor** resolves LBAs through the **LBA
   Extractor** and writes Info Area records (destination = a Data Area
   item if the adaptive mechanism admits the range, else TempBuf); the
   **Requester** step hands the reconstructed read to the device-side
   **Read Engine**, which senses flash and DMAs only the demanded bytes
   into the HMB.

Writes take the traditional buffered path and delete any overlapping
fine-grained cache items, so later reads see either the fresher page
cache or the latest flash data.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.core.constructor import FineGrainedConstructor
from repro.core.engine import FineGrainedReadEngine
from repro.core.read_cache.cache import FineGrainedReadCache
from repro.kernel.page_cache import PageCache
from repro.kernel.vfs import BlockReadPath, OpenFile
from repro.system import StorageSystem, register_system


@register_system
class PipetteSystem(StorageSystem):
    """Pipette: fine-grained read framework with adaptive caching."""

    NAME = "pipette"

    def __init__(self, config: SimConfig) -> None:
        super().__init__(config)
        cache_config = config.cache
        # The page cache keeps the full shared budget — the FGRC lives
        # in the HMB region the host lends the device (paper 3.1.1), as
        # Table 4's asymmetric memory-usage numbers imply.  The dynamic
        # allocation strategy can still shift budget between the two.
        self.page_cache = PageCache(
            capacity_bytes=cache_config.shared_memory_bytes,
            page_size=config.ssd.page_size,
        )
        self.block_path = BlockReadPath(config, self.device, self.fs, self.page_cache)

        # HMB feature negotiation at initialization (off the read path).
        self.device.enable_hmb()
        self.cache = FineGrainedReadCache(
            cache_config,
            config.pipette,
            hmb=self.device.hmb,
            page_cache=self.page_cache,
            transfer_data=config.transfer_data,
            placement=self.device.placement,
        )
        self.constructor = FineGrainedConstructor(fs=self.fs, info_area=self.cache.info_area)
        self.engine = FineGrainedReadEngine(
            config=config,
            controller=self.device.controller,
            link=self.device.link,
            hmb=self.device.hmb,
            info_area=self.cache.info_area,
        )
        #: Reads served straight from the page cache on the fine path.
        self.fine_page_cache_hits = 0

    # --- framework hooks ---------------------------------------------------
    def _on_open(self, entry: OpenFile) -> None:
        # A per-file hash lookup table is created once the application
        # opens the file that serves fine-grained reads (paper 3.1.2).
        if entry.fine_grained:
            self.cache.ensure_table(entry.inode.ino)

    # --- read ----------------------------------------------------------------
    def _read(self, entry: OpenFile, offset: int, size: int) -> bytes | None:
        if entry.fine_grained and 0 < size < self.config.pipette.dispatch_threshold_bytes:
            return self._fine_read(entry, offset, size)
        return self.block_path.read(entry, offset, size)

    def _fine_read(self, entry: OpenFile, offset: int, size: int) -> bytes | None:
        timing = self.config.timing
        tracer = self.device.tracer
        inode = entry.inode
        if offset < 0 or size <= 0 or offset + size > inode.size:
            raise ValueError(f"read [{offset}, {offset + size}) outside file of {inode.size}")

        tracer.host("fine_stack", timing.fine_stack_ns)

        # The request is first performed by the page cache (3.1.2): a
        # buffered write may have fresher data than flash.
        served, data = self._try_page_cache(inode, offset, size)
        if served:
            self.fine_page_cache_hits += 1
            return data

        probe = self.cache.lookup(inode.ino, offset, size)
        if probe.hit:
            assert probe.item is not None
            tracer.host("fgrc_hit", timing.fgrc_hit_ns)
            tracer.host("dram_copy", timing.dram_copy_ns(size))
            return self.cache.read_item(probe.item)

        # Miss: decide the destination, then fetch from the device.
        item = None
        if self.cache.should_admit(probe):
            item = self.cache.admit(inode.ino, offset, size)
        dest_addr = item.addr if item is not None else self.cache.tempbuf_alloc(size)

        prefetch = self._plan_prefetch(inode, offset, size)
        tracer.host("fine_miss_host", timing.fine_miss_host_ns)
        self._miss_transfer(inode, offset, size, dest_addr, prefetch=prefetch)
        # Fine-path completion handling is host work on the critical
        # path (polling the Info Area head, 3.1.2).
        tracer.host("completion", timing.completion_ns)

        data = None
        if self.config.transfer_data:
            data = self.device.hmb.read(dest_addr, size)
            if item is not None:
                self.cache.fill(item, data)
        tracer.host("dram_copy", timing.dram_copy_ns(size))
        return data

    def _plan_prefetch(self, inode, offset: int, size: int) -> list[tuple[int, int, int]]:
        """Spatial-prefetch extension: admit same-size neighbors.

        Returns additional (offset, size, dest) requests to ride the
        miss's command; empty with the paper's default configuration.
        """
        wanted = self.config.pipette.fine_prefetch_objects
        if wanted <= 0:
            return []
        extra: list[tuple[int, int, int]] = []
        neighbor = offset + size
        while len(extra) < wanted and neighbor + size <= inode.size:
            table = self.cache.ensure_table(inode.ino)
            if table.get(neighbor, size) is None:
                item = self.cache.admit(inode.ino, neighbor, size)
                if item is None:
                    break  # memory pressure: stop prefetching
                extra.append((neighbor, size, item.addr))
            neighbor += size
        return extra

    def _miss_transfer(
        self,
        inode,
        offset: int,
        size: int,
        dest_addr: int,
        *,
        prefetch: list[tuple[int, int, int]] | None = None,
    ) -> None:
        """Fetch a missed range from flash into the cache buffer.

        The default implementation is the paper's HMB design: the
        Constructor stages Info records and returns the reconstructed
        read, and the device-side Read Engine DMAs the demanded bytes
        straight to ``dest_addr`` over the persistent HMB mapping.  The
        engine records its stages (channel senses, serial array phase,
        link transfers) into the active trace.
        """
        requests = [(offset, size, dest_addr)] + list(prefetch or [])
        self.engine.read(self.constructor.construct_multi(inode, requests))

    def _try_page_cache(self, inode, offset: int, size: int) -> tuple[bool, bytes | None]:
        """Serve a fine read from resident pages, if all are present.

        Returns ``(served, data)``; records nothing unless served.
        """
        page_size = self.fs.page_size
        first = offset // page_size
        last = (offset + size - 1) // page_size
        for page_index in range(first, last + 1):
            if self.page_cache.peek(inode.ino, page_index) is None:
                return False, None
        timing = self.config.timing
        tracer = self.device.tracer
        chunks: list[bytes] = []
        position = offset
        end = offset + size
        while position < end:
            page_index = position // page_size
            in_page = position % page_size
            take = min(end - position, page_size - in_page)
            cached = self.page_cache.lookup(inode.ino, page_index)
            assert cached is not None
            tracer.host("page_cache_hit", timing.page_cache_hit_ns)
            if self.config.transfer_data and cached.content is not None:
                chunks.append(cached.content[in_page : in_page + take])
            position += take
        tracer.host("dram_copy", timing.dram_copy_ns(size))
        data = b"".join(chunks) if self.config.transfer_data else None
        return True, data

    # --- write / fsync -----------------------------------------------------------
    def _write(self, entry: OpenFile, offset: int, data: bytes) -> None:
        # Consistency rule (3.1.3): delete overlapping fine-grained
        # items on every write, then take the traditional write path.
        self.cache.invalidate_range(entry.inode.ino, offset, len(data))
        self.block_path.write(entry, offset, data)

    def _fsync(self, entry: OpenFile) -> None:
        self.block_path.fsync(entry)

    # --- reporting -----------------------------------------------------------------
    def cache_stats(self) -> dict[str, float]:
        stats = {
            "page_cache_hit_ratio": self.page_cache.hit_ratio,
            "page_cache_usage_bytes": float(self.page_cache.usage_bytes),
            "page_cache_peak_bytes": float(self.page_cache.peak_usage_bytes),
            "fgrc_hit_ratio": self.cache.hit_ratio,
            "fgrc_usage_bytes": float(self.cache.usage_bytes),
            "fine_page_cache_hits": float(self.fine_page_cache_hits),
        }
        for key, value in self.cache.stats().items():
            stats[f"fgrc_{key}"] = value
        # Backend placement breakdown (empty on the unified default, so
        # pcie_gen3/cxl_lmb reports are unchanged).
        stats.update(self.device.placement.stats())
        # Structured extra (not a float): per-slab-class occupancy rows.
        stats["_occupancy"] = self.cache.class_occupancy()  # type: ignore[assignment]
        return stats


__all__ = ["PipetteSystem"]

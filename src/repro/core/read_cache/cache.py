"""The Fine-Grained Read Cache facade (paper section 3.2).

Glues the pieces together over one HMB layout::

    [ Info Area | TempBuf Area | Data Area (slabs) ... ]

and exposes the operations the Pipette framework needs: lookup,
admission (with the adaptive threshold and the dynamic allocation
strategy on memory pressure), fill after a device transfer, overlap
invalidation on writes, and usage/hit-ratio reporting for the paper's
Table 4.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.config import CacheConfig, PipetteConfig
from repro.core.read_cache.adaptive import AdaptiveThreshold
from repro.core.read_cache.dynalloc import AllocationAction, DynamicAllocator
from repro.core.read_cache.info_area import InfoArea
from repro.core.read_cache.lookup import FileLookupTable
from repro.core.read_cache.reassign import SlabReassigner
from repro.core.read_cache.slab import CacheItem, Slab, SlabAllocator, SlabClass
from repro.core.read_cache.tempbuf import TempBufArea
from repro.kernel.page_cache import PageCache
from repro.sim.stats import HitMissCounter
from repro.ssd.backends.base import BufferPlacement
from repro.ssd.hmb import HostMemoryBuffer


class CacheLookup(NamedTuple):
    """Outcome of one cache probe."""

    item: CacheItem | None
    prior_accesses: int = 0

    @property
    def hit(self) -> bool:
        return self.item is not None


class FineGrainedReadCache:
    """Host-side fine-grained read cache living inside the HMB."""

    def __init__(
        self,
        cache_config: CacheConfig,
        pipette_config: PipetteConfig,
        hmb: HostMemoryBuffer,
        page_cache: PageCache,
        *,
        transfer_data: bool = True,
        seed: int | None = None,
        placement: BufferPlacement | None = None,
    ) -> None:
        self.config = cache_config
        self.page_cache = page_cache
        self.hmb = hmb
        self.transfer_data = transfer_data
        #: Backend placement policy: destinations the cache hands out
        #: (Data Area items, TempBuf ranges) are tagged with placement
        #: handles so an FDP-style backend can segregate them by slab
        #: class; the unified default is a no-op.
        self.placement = placement if placement is not None else BufferPlacement()
        #: Per-instance seeded stream (plumbed from CacheConfig.rng_seed
        #: unless a caller overrides it) — never the global `random`
        #: module, so concurrent caches and unrelated draws cannot
        #: perturb each other's sequences.
        self._rng = random.Random(cache_config.rng_seed if seed is None else seed)

        info_bytes = cache_config.info_area_bytes
        needed = cache_config.hmb_needed_bytes
        if needed > hmb.size:
            raise ValueError(
                f"HMB of {hmb.size} B cannot hold info({info_bytes}) + "
                f"tempbuf({cache_config.tempbuf_bytes}) + data({cache_config.fgrc_bytes})"
            )
        self.info_area = InfoArea(capacity=cache_config.info_area_entries)
        self.tempbuf = TempBufArea(base_addr=info_bytes, size=cache_config.tempbuf_bytes)
        data_base = info_bytes + cache_config.tempbuf_bytes
        self.allocator = SlabAllocator(
            base_addr=data_base,
            size_bytes=cache_config.fgrc_bytes,
            slab_bytes=cache_config.slab_bytes,
            min_item=cache_config.min_item_bytes,
            max_item=cache_config.max_item_bytes,
            growth_factor=cache_config.growth_factor,
        )
        self.adaptive = AdaptiveThreshold(
            initial=cache_config.initial_threshold,
            minimum=cache_config.threshold_min,
            maximum=cache_config.threshold_max,
            ratio_min=cache_config.reuse_ratio_min,
            ratio_max=cache_config.reuse_ratio_max,
            period=cache_config.adapt_period,
            enabled=pipette_config.adaptive_caching,
        )
        self.reassigner = SlabReassigner(
            enabled=cache_config.reassign_enabled,
            idle_stages=cache_config.reassign_idle_stages,
        )
        self.dynalloc = DynamicAllocator(
            enabled=cache_config.dynalloc_enabled,
            fgrc_max_fraction=cache_config.fgrc_max_fraction,
            shared_budget_bytes=cache_config.shared_memory_bytes,
        )

        self.tables: dict[int, FileLookupTable] = {}
        self._items_by_addr: dict[int, CacheItem] = {}
        self.counter = HitMissCounter()
        self.admissions = 0
        self.tempbuf_passes = 0
        self.invalidations = 0
        self.migrated_slabs = 0
        self.reassigned_slabs = 0
        self.overflow_bytes = 0
        self._accesses_since_scan = 0

    # --- per-file tables ------------------------------------------------------
    def ensure_table(self, ino: int) -> FileLookupTable:
        """Create the per-file hash lookup table on first use."""
        table = self.tables.get(ino)
        if table is None:
            table = FileLookupTable(ino=ino, ghost_limit=self.config.ghost_limit)
            self.tables[ino] = table
        return table

    # --- lookup ----------------------------------------------------------------
    def lookup(self, ino: int, offset: int, length: int) -> CacheLookup:
        """Probe the cache; updates hit/miss, reuse and LRU state."""
        table = self.ensure_table(ino)
        self._maintenance_tick()
        item = table.get(offset, length)
        if item is not None:
            item.ref_count += 1
            self.allocator.classes[item.class_index].lru.touch(item)
            self.counter.hit()
            self.adaptive.on_access(repeated=True)
            return CacheLookup(item=item)
        self.counter.miss()
        count = table.ghost_bump(offset, length)
        self.adaptive.on_access(repeated=count > 1)
        return CacheLookup(item=None, prior_accesses=count - 1)

    def read_item(self, item: CacheItem) -> bytes | None:
        """Payload of a resident item."""
        if not self.transfer_data:
            return None
        if item.in_hmb:
            return self.hmb.read(item.addr, item.length)
        return item.overflow_data

    # --- admission ----------------------------------------------------------------
    def should_admit(self, probe: CacheLookup) -> bool:
        """Adaptive decision: cache this missed range now?"""
        return self.adaptive.should_admit(probe.prior_accesses)

    def admit(self, ino: int, offset: int, length: int) -> CacheItem | None:
        """Allocate and index an item for a missed range.

        Returns None when no memory can be found (the read then stages
        through the TempBuf instead).
        """
        slab_class = self.allocator.class_for(length)
        if slab_class is None:
            return None
        addr = self.allocator.allocate(slab_class)
        if addr is None:
            addr = self._relieve_pressure(slab_class)
        if addr is None:
            slab_class.denied_count += 1
            return None
        item = CacheItem(
            ino=ino, offset=offset, length=length, addr=addr, class_index=slab_class.index
        )
        slab_class.lru.push_front(item)
        self.ensure_table(ino).insert(item)
        self._items_by_addr[addr] = item
        self.admissions += 1
        handle = self.placement.handle_for_class(slab_class.index)
        self.placement.record_admission(handle, length)
        self.placement.stage_destination(addr, handle)
        return item

    def tempbuf_alloc(self, length: int) -> int:
        """Destination address for a non-admitted (low-reuse) read."""
        self.tempbuf_passes += 1
        addr = self.tempbuf.alloc(length)
        handle = self.placement.tempbuf_handle
        self.placement.record_admission(handle, length)
        self.placement.stage_destination(addr, handle)
        return addr

    def fill(self, item: CacheItem, data: bytes | None) -> None:
        """Host-visible completion of the device's DMA into the item."""
        if self.transfer_data:
            if data is None or len(data) != item.length:
                raise ValueError("fill payload does not match item length")
            # The Read Engine already wrote the HMB; nothing to copy here.

    # --- memory pressure ---------------------------------------------------------
    def _relieve_pressure(self, slab_class: SlabClass) -> int | None:
        """Apply the dynamic allocation strategy until an address frees up."""
        action = self.dynalloc.decide(
            fgrc_hit_ratio=self.counter.hit_ratio,
            page_cache_hit_ratio=self.page_cache.hit_ratio,
            fgrc_usage_bytes=self.usage_bytes,
            can_migrate=self._migration_donor() is not None,
            can_evict=len(slab_class.lru) > 0,
        )
        if action is AllocationAction.MIGRATE_SLAB:
            donor = self._migration_donor()
            assert donor is not None
            donor_class, slab = donor
            self._migrate_slab_out(donor_class, slab)
            return self.allocator.allocate(slab_class)
        if action is AllocationAction.EVICT_ITEM:
            # Overflowed (out-of-HMB) victims free no slab memory; keep
            # evicting until an in-HMB item's buffer is recycled.
            while len(slab_class.lru):
                victim = slab_class.lru.pop_tail()
                assert isinstance(victim, CacheItem)
                in_hmb = victim.in_hmb
                self._drop_item(victim, evicted=True)
                if in_hmb:
                    return self.allocator.allocate(slab_class)
            return None
        return None

    def _migration_donor(self) -> tuple[SlabClass, Slab] | None:
        """Random slab class with more than one slab (paper 3.2.1 #2)."""
        candidates = [cls for cls in self.allocator.classes if len(cls.slabs) > 1]
        if not candidates:
            return None
        donor = self._rng.choice(candidates)
        return donor, donor.slabs[0]

    def _migrate_slab_out(self, donor: SlabClass, slab: Slab) -> None:
        """Solution 2: move a slab's data out of the shared region.

        Items stay cached (in host memory borrowed from the page-cache
        budget); the emptied slab returns to the free pool.
        """
        for addr in sorted(slab.items):
            item = self._items_by_addr.pop(addr)
            if self.transfer_data:
                item.overflow_data = self.hmb.read(item.addr, item.length)
            item.addr = -1
            self.overflow_bytes += slab.item_capacity
        slab.items.clear()
        self.allocator.release_slab(donor, slab)
        self.migrated_slabs += 1
        # Borrow the budget from the page cache (one-way, bounded by
        # the dynamic allocator's growth cap).
        page_size = self.page_cache.page_size
        new_capacity = max(page_size, self.page_cache.capacity_bytes - self.config.slab_bytes)
        self.page_cache.set_capacity(new_capacity)

    def _drop_item(self, item: CacheItem, *, evicted: bool) -> None:
        """Remove an item from the index and recycle its memory."""
        table = self.tables.get(item.ino)
        if table is not None and table.get(item.offset, item.length) is item:
            table.remove(item)
        if item.in_hmb:
            self._items_by_addr.pop(item.addr, None)
            self.allocator.recycle(item)
        else:
            self.overflow_bytes -= self.allocator.classes[item.class_index].item_capacity
            item.overflow_data = None
        if evicted:
            self.allocator.classes[item.class_index].eviction_count += 1

    # --- consistency (paper section 3.1.3) ------------------------------------------
    def invalidate_range(self, ino: int, offset: int, length: int) -> int:
        """Delete every cached item overlapping a written range."""
        table = self.tables.get(ino)
        if table is None:
            return 0
        victims = table.overlapping(offset, length)
        for item in victims:
            self.allocator.classes[item.class_index].lru.remove(item)
            self._drop_item(item, evicted=False)
        table.ghost_drop(offset, length)
        self.invalidations += len(victims)
        return len(victims)

    # --- background maintenance ----------------------------------------------------
    def _maintenance_tick(self) -> None:
        """Periodic slab-reassignment scan (maintenance + re-balance)."""
        self._accesses_since_scan += 1
        if self._accesses_since_scan < self.config.reassign_period:
            return
        self._accesses_since_scan = 0
        for donor_class, slab in self.reassigner.scan(self.allocator):
            self._drain_slab(donor_class, slab)
            self.reassigned_slabs += 1

    def _drain_slab(self, donor: SlabClass, slab: Slab) -> None:
        """Re-balance thread: drop a cold slab's items, recycle the slab."""
        for addr in sorted(slab.items):
            item = self._items_by_addr.pop(addr)
            table = self.tables.get(item.ino)
            if table is not None and table.get(item.offset, item.length) is item:
                table.remove(item)
            donor.lru.remove(item)
        slab.items.clear()
        self.allocator.release_slab(donor, slab)

    # --- reporting ----------------------------------------------------------------
    @property
    def usage_bytes(self) -> int:
        """Total memory footprint (data slabs + overflow + rings)."""
        fixed = self.info_area.capacity * 12 + self.tempbuf.size
        return self.allocator.used_bytes() + self.overflow_bytes + fixed

    @property
    def hit_ratio(self) -> float:
        return self.counter.hit_ratio

    @property
    def resident_items(self) -> int:
        return self.allocator.resident_items()

    def class_occupancy(self) -> list[dict[str, float]]:
        """Per-slab-class occupancy report (Figure 3's structures).

        One row per class: item capacity, slab count, resident items,
        recycled (cleanup) slots, eviction count — the inputs the
        adaptive reassignment strategy monitors.
        """
        rows: list[dict[str, float]] = []
        for slab_class in self.allocator.classes:
            capacity_items = sum(slab.item_count for slab in slab_class.slabs)
            rows.append(
                {
                    "item_capacity": float(slab_class.item_capacity),
                    "slabs": float(len(slab_class.slabs)),
                    "resident_items": float(len(slab_class.lru)),
                    "capacity_items": float(capacity_items),
                    "recycled_slots": float(len(slab_class.cleanup)),
                    "evictions": float(slab_class.eviction_count),
                    "allocations": float(slab_class.allocations),
                }
            )
        return rows

    def stats(self) -> dict[str, float]:
        return {
            "hit_ratio": self.hit_ratio,
            "hits": float(self.counter.hits),
            "misses": float(self.counter.misses),
            "usage_bytes": float(self.usage_bytes),
            "resident_items": float(self.resident_items),
            "admissions": float(self.admissions),
            "tempbuf_passes": float(self.tempbuf_passes),
            "invalidations": float(self.invalidations),
            "migrated_slabs": float(self.migrated_slabs),
            "reassigned_slabs": float(self.reassigned_slabs),
            "threshold": float(self.adaptive.threshold),
            "reuse_ratio": self.adaptive.reuse_ratio,
        }


__all__ = ["CacheLookup", "FineGrainedReadCache"]

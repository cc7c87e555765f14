"""Per-file hash lookup tables (paper Figure 3, bottom left).

One table is created the first time a file opened with
``O_FINE_GRAINED`` serves a fine-grained read.  The table maps exact
``(offset, length)`` ranges to resident :class:`CacheItem` objects, and
additionally tracks *ghost* entries — ranges that have been accessed
but whose data was not admitted yet — so the adaptive caching mechanism
can count accesses before promotion.

A sorted offset index supports overlap invalidation on writes (the
consistency rule of paper section 3.1.3).
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.read_cache.slab import CacheItem


@dataclass
class FileLookupTable:
    """Hash table of cached ranges for one inode."""

    ino: int
    ghost_limit: int = 65536
    _items: dict[tuple[int, int], CacheItem] = field(default_factory=dict)
    #: Sorted start offsets of resident items (for overlap queries).
    _offsets: list[tuple[int, int]] = field(default_factory=list)
    #: Access counts for ranges seen but not (yet) cached.
    _ghosts: OrderedDict = field(default_factory=OrderedDict)
    #: Longest item ever inserted; bounds the leftward overlap scan.
    _longest: int = 0

    def __len__(self) -> int:
        return len(self._items)

    # --- resident items ---------------------------------------------------
    def get(self, offset: int, length: int) -> CacheItem | None:
        return self._items.get((offset, length))

    def insert(self, item: CacheItem) -> None:
        key = item.key
        if key in self._items:
            raise KeyError(f"range {key} already cached for ino {self.ino}")
        self._items[key] = item
        bisect.insort(self._offsets, key)
        if item.length > self._longest:
            self._longest = item.length
        # The range is resident now; its ghost entry is obsolete.
        self._ghosts.pop(key, None)

    def remove(self, item: CacheItem) -> None:
        key = item.key
        if self._items.pop(key, None) is None:
            raise KeyError(f"range {key} not cached for ino {self.ino}")
        index = bisect.bisect_left(self._offsets, key)
        assert self._offsets[index] == key
        self._offsets.pop(index)

    def overlapping(self, offset: int, length: int) -> list[CacheItem]:
        """Resident items intersecting ``[offset, offset + length)``."""
        if length <= 0:
            return []
        end = offset + length
        found: list[CacheItem] = []
        # Items start before `end`; walk left while they might reach `offset`.
        index = bisect.bisect_left(self._offsets, (end, 0)) - 1
        while index >= 0:
            start, item_length = self._offsets[index]
            if start + item_length > offset:
                found.append(self._items[(start, item_length)])
                index -= 1
            elif start + self._longest <= offset:
                break
            else:
                index -= 1
        found.reverse()
        return found

    def items(self) -> list[CacheItem]:
        return list(self._items.values())

    # --- ghosts ----------------------------------------------------------------
    def ghost_count(self, offset: int, length: int) -> int:
        """Accesses recorded for a not-yet-cached range."""
        return self._ghosts.get((offset, length), 0)

    def ghost_bump(self, offset: int, length: int) -> int:
        """Record one more access to a not-yet-cached range."""
        key = (offset, length)
        count = self._ghosts.get(key, 0) + 1
        self._ghosts[key] = count
        self._ghosts.move_to_end(key)
        while len(self._ghosts) > self.ghost_limit:
            self._ghosts.popitem(last=False)
        return count

    def ghost_drop(self, offset: int, length: int) -> None:
        self._ghosts.pop((offset, length), None)

    @property
    def ghosts(self) -> int:
        return len(self._ghosts)


__all__ = ["FileLookupTable"]

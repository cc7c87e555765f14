"""Fine-grained write path: the dual of Pipette (extension).

The paper handles reads and cites CoinPurse [Yang et al., DAC'20] as
the fine-grained *write* counterpart, leaving a combined system as
implied future work.  ``PipetteRWSystem`` adds that: writes smaller
than the dispatch threshold land in a host-side **write-combining
buffer** instead of triggering a page-granular read-modify-write.

Consistency contract (extending the paper's 3.1.3 rule):

- every read — fine or block path — overlays pending buffered writes;
  read-your-writes still does not hold once they are flushed, since a
  fine read can then return stale FGRC or flash bytes (a strict xfail
  in ``tests/integration/test_read_your_writes.py``);
- buffered writes invalidate overlapping fine-grained *read* cache
  items (same rule as the base system);
- the buffer flushes when it exceeds its budget or on ``fsync``, going
  through the normal buffered write path (page cache + writeback).

The win is write-path economy: k small writes to one page cost one RMW
at flush time instead of k.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.config import SimConfig
from repro.core.framework import PipetteSystem
from repro.kernel.vfs import OpenFile
from repro.system import register_system


@dataclass
class PendingWrite:
    """One buffered fine-grained write."""

    offset: int
    data: bytes | None
    length: int


def _part(entry: PendingWrite, start: int, stop: int) -> PendingWrite:
    """The bytes ``[start, stop)`` of a pending write."""
    data = None if entry.data is None else entry.data[start - entry.offset : stop - entry.offset]
    return PendingWrite(offset=start, data=data, length=stop - start)


@dataclass
class WriteCombiningBuffer:
    """Per-file map of pending small writes: disjoint, sorted by offset."""

    capacity_bytes: int
    used_bytes: int = 0
    _by_ino: dict[int, list[PendingWrite]] = field(default_factory=dict)
    absorbed: int = 0
    flushes: int = 0

    def add(self, ino: int, offset: int, data: bytes | None, length: int) -> None:
        """Buffer a write; the newest bytes win wherever ranges overlap.

        Older entries the write overlaps are cut to the parts it leaves
        uncovered (a head before it, a tail after it), so pending
        entries never overlap: the read overlay and a flush may apply
        them in any order, and ``used_bytes`` counts each byte once.
        """
        pending = self._by_ino.setdefault(ino, [])
        end = offset + length
        # Entries are disjoint and sorted, so their ends are sorted too:
        # pending[first:last] are the entries the write overlaps.
        first = bisect.bisect_right(pending, offset, key=lambda entry: entry.offset + entry.length)
        last = bisect.bisect_left(pending, end, lo=first, key=lambda entry: entry.offset)
        replacement = [PendingWrite(offset=offset, data=data, length=length)]
        if last > first:
            head, tail = pending[first], pending[last - 1]
            if head.offset < offset:
                replacement.insert(0, _part(head, head.offset, offset))
            if tail.offset + tail.length > end:
                replacement.append(_part(tail, end, tail.offset + tail.length))
        self.used_bytes += sum(entry.length for entry in replacement) - sum(
            entry.length for entry in pending[first:last]
        )
        pending[first:last] = replacement
        self.absorbed += 1

    def overlapping(self, ino: int, offset: int, length: int) -> list[PendingWrite]:
        pending = self._by_ino.get(ino)
        if not pending:
            return []
        end = offset + length
        return [
            entry
            for entry in pending
            if entry.offset < end and entry.offset + entry.length > offset
        ]

    @property
    def over_budget(self) -> bool:
        return self.used_bytes > self.capacity_bytes

    def drain(self, ino: int | None = None) -> dict[int, list[PendingWrite]]:
        """Remove and return pending writes (all files, or one)."""
        if ino is None:
            drained = self._by_ino
            self._by_ino = {}
        else:
            entries = self._by_ino.pop(ino, [])
            drained = {ino: entries} if entries else {}
        for entries in drained.values():
            for entry in entries:
                self.used_bytes -= entry.length
        if drained:
            self.flushes += 1
        return drained


@register_system
class PipetteRWSystem(PipetteSystem):
    """Pipette plus a fine-grained (combining) write path."""

    NAME = "pipette-rw"

    def __init__(self, config: SimConfig) -> None:
        super().__init__(config)
        self.write_buffer = WriteCombiningBuffer(
            capacity_bytes=config.cache.tempbuf_bytes
        )

    # --- write path --------------------------------------------------------
    def _write(self, entry: OpenFile, offset: int, data: bytes) -> None:
        size = len(data)
        if (
            not entry.fine_grained
            or size == 0
            or size >= self.config.pipette.dispatch_threshold_bytes
            or offset + size > entry.inode.size
        ):
            self._flush_buffer(entry)  # keep ordering with big writes
            super()._write(entry, offset, data)
            return
        timing = self.config.timing
        self.tracer.host("fine_stack", timing.fine_stack_ns)
        self.tracer.host("dram_copy", timing.dram_copy_ns(size))
        self.cache.invalidate_range(entry.inode.ino, offset, size)
        payload = data if self.config.transfer_data else None
        self.write_buffer.add(entry.inode.ino, offset, payload, size)
        if self.write_buffer.over_budget:
            self._flush_buffer(entry)

    def _flush_buffer(self, entry: OpenFile) -> None:
        """Push pending writes through the normal buffered write path."""
        for ino, pending in self.write_buffer.drain().items():
            inode = self.fs.inode_by_number(ino)
            flush_entry = entry if entry.inode.ino == ino else self._entry_for(inode)
            for record in pending:
                payload = (
                    record.data
                    if record.data is not None
                    else b"\x00" * record.length
                )
                self.block_path.write(flush_entry, record.offset, payload)

    def _entry_for(self, inode) -> OpenFile:
        # Synthesize a transient open for flush targets not handed in.
        return self.files.install(inode, 0)

    def _fsync(self, entry: OpenFile) -> None:
        self._flush_buffer(entry)
        super()._fsync(entry)

    # --- read overlay --------------------------------------------------------
    def _read(self, entry: OpenFile, offset: int, size: int) -> bytes | None:
        data = super()._read(entry, offset, size)
        pending = self.write_buffer.overlapping(entry.inode.ino, offset, size)
        if not pending:
            return data
        self.tracer.host(
            "overlay_copy",
            self.config.timing.dram_copy_ns(sum(record.length for record in pending)),
        )
        if data is None:
            return None
        merged = bytearray(data)
        for record in pending:
            if record.data is None:
                continue
            start = max(record.offset, offset)
            end = min(record.offset + record.length, offset + size)
            merged[start - offset : end - offset] = record.data[
                start - record.offset : end - record.offset
            ]
        return bytes(merged)

    def cache_stats(self) -> dict[str, float]:
        stats = super().cache_stats()
        stats["write_buffer_absorbed"] = float(self.write_buffer.absorbed)
        stats["write_buffer_flushes"] = float(self.write_buffer.flushes)
        stats["write_buffer_bytes"] = float(self.write_buffer.used_bytes)
        return stats


__all__ = ["PendingWrite", "PipetteRWSystem", "WriteCombiningBuffer"]

"""VFS layer: file descriptors, open flags, and the block read path.

``BlockReadPath`` implements the conventional read flow of paper
section 2.1 end to end: VFS -> page cache (with read-ahead) -> block
layer -> device, plus the write path (dirty pages in the page cache,
flushed on fsync or eviction).  The block layer's host cost is the
``block_layer`` stage; the device senses the missed pages in LBA
order and returns them in one transfer.  Both the Block I/O
baseline and Pipette's coarse-grained dispatch reuse this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SimConfig
from repro.kernel.fs.ext4 import ExtentFileSystem
from repro.kernel.fs.inode import Inode
from repro.kernel.page_cache import PageCache
from repro.kernel.readahead import ReadaheadState
from repro.ssd.device import SSDDevice

#: Standard-ish open flags (values chosen to be orthogonal bits).
O_RDONLY = 0x0
O_RDWR = 0x2
#: The new flag the paper introduces (section 4.1) to opt a file into
#: the fine-grained read path.
O_FINE_GRAINED = 0x1000000


@dataclass
class OpenFile:
    """One file-descriptor table entry."""

    fd: int
    inode: Inode
    flags: int
    readahead: ReadaheadState

    @property
    def fine_grained(self) -> bool:
        return bool(self.flags & O_FINE_GRAINED)


@dataclass
class FileTable:
    """Process-wide descriptor table."""

    config: SimConfig
    _next_fd: int = 3
    _open: dict[int, OpenFile] = field(default_factory=dict)

    def install(self, inode: Inode, flags: int) -> OpenFile:
        inode.open_flags |= flags
        entry = OpenFile(
            fd=self._next_fd,
            inode=inode,
            flags=flags,
            readahead=ReadaheadState(self.config.readahead),
        )
        self._open[entry.fd] = entry
        self._next_fd += 1
        return entry

    def get(self, fd: int) -> OpenFile:
        entry = self._open.get(fd)
        if entry is None:
            raise OSError(f"bad file descriptor {fd}")
        return entry

    def close(self, fd: int) -> None:
        if fd not in self._open:
            raise OSError(f"bad file descriptor {fd}")
        del self._open[fd]

    def __len__(self) -> int:
        return len(self._open)


class BlockReadPath:
    """The conventional page-granular read/write path."""

    def __init__(
        self,
        config: SimConfig,
        device: SSDDevice,
        fs: ExtentFileSystem,
        page_cache: PageCache,
    ) -> None:
        self.config = config
        self.device = device
        self.fs = fs
        self.page_cache = page_cache
        #: Payload of every page flushed without content: one shared
        #: object, so the flash array keeps no per-page copy of it.
        self._zero_page = bytes(fs.page_size)
        page_cache.writeback = self._writeback

    # --- helpers -----------------------------------------------------------
    def _writeback(self, ino: int, page_index: int, content: bytes | None) -> None:
        """Flush one dirty page on eviction (called by the page cache).

        Eviction can trigger in the middle of an unrelated request, so
        the write is recorded detached: it occupies the link and the
        channel but never extends the triggering request's latency.
        """
        inode = self.fs.inode_by_number(ino)
        lba = self.fs.page_lba(inode, page_index)
        payload = content if content is not None else self._zero_page
        with self.device.tracer.detached("writeback"):
            self.device.block_write([(lba, payload)])

    # --- read -------------------------------------------------------------
    def read(self, entry: OpenFile, offset: int, size: int) -> bytes | None:
        """Read ``size`` bytes at ``offset``.

        Returns None when the simulation runs with ``transfer_data``
        disabled (accounting-only mode).
        """
        inode = entry.inode
        if offset < 0 or size <= 0 or offset + size > inode.size:
            raise ValueError(f"read [{offset}, {offset + size}) outside file of {inode.size}")
        timing = self.config.timing
        tracer = self.device.tracer
        page_size = self.fs.page_size
        file_pages = -(-inode.size // page_size)

        tracer.host("block_stack", timing.block_stack_ns)

        first_page = offset // page_size
        last_page = (offset + size - 1) // page_size

        miss_pages: list[int] = []
        resident: dict[int, bytes | None] = {}
        for page_index in range(first_page, last_page + 1):
            cached = self.page_cache.lookup(inode.ino, page_index)
            if cached is None:
                miss_pages.append(page_index)
            else:
                resident[page_index] = cached.content
                tracer.host("page_cache_hit", timing.page_cache_hit_ns)

        # Read-ahead window (based on the first missing page's pattern).
        readahead_pages: list[int] = []
        for page_index in range(first_page, last_page + 1):
            was_miss = page_index in miss_pages
            extra = entry.readahead.on_access(
                page_index, was_miss=was_miss, file_pages=file_pages
            )
            for candidate in extra:
                if candidate <= last_page:
                    continue
                if self.page_cache.peek(inode.ino, candidate) is not None:
                    continue
                readahead_pages.append(candidate)

        if miss_pages:
            tracer.host("block_layer", timing.block_layer_ns)
            lba_of = {page: self.fs.page_lba(inode, page) for page in miss_pages}
            background = [self.fs.page_lba(inode, page) for page in readahead_pages]
            pages = self.device.block_read(
                list(lba_of.values()), background_lbas=background
            )
            for page_index, lba in lba_of.items():
                content = pages.get(lba)
                self.page_cache.insert(inode.ino, page_index, content)
                resident[page_index] = content
            for page_index in readahead_pages:
                lba = self.fs.page_lba(inode, page_index)
                self.page_cache.insert(inode.ino, page_index, pages.get(lba))

        tracer.host("dram_copy", timing.dram_copy_ns(size))

        if not self.config.transfer_data:
            return None
        chunks: list[bytes] = []
        position = offset
        end = offset + size
        while position < end:
            page_index = position // page_size
            in_page = position % page_size
            take = min(end - position, page_size - in_page)
            content = resident.get(page_index)
            if content is None:
                raise RuntimeError(f"page {page_index} missing after read")
            chunks.append(content[in_page : in_page + take])
            position += take
        return b"".join(chunks)

    # --- write ------------------------------------------------------------
    def write(self, entry: OpenFile, offset: int, data: bytes) -> None:
        """Buffered write: update page-cache pages, mark dirty."""
        inode = entry.inode
        size = len(data)
        if size == 0:
            return
        if offset < 0:
            raise ValueError("negative offset")
        if offset + size > inode.size:
            self.fs.truncate(inode, offset + size)
        timing = self.config.timing
        tracer = self.device.tracer
        page_size = self.fs.page_size
        tracer.host("block_stack", timing.block_stack_ns)

        position = offset
        end = offset + size
        data_cursor = 0
        while position < end:
            page_index = position // page_size
            in_page = position % page_size
            take = min(end - position, page_size - in_page)
            cached = self.page_cache.lookup(inode.ino, page_index)
            if cached is None:
                # Read-modify-write: partial page updates must fetch the
                # page first; full-page overwrites can skip the read.
                if take == page_size:
                    content = b"\x00" * page_size if self.config.transfer_data else None
                else:
                    lba = self.fs.page_lba(inode, page_index)
                    content = self.device.block_read([lba]).get(lba)
                self.page_cache.insert(inode.ino, page_index, content)
                cached = self.page_cache.peek(inode.ino, page_index)
                assert cached is not None
            if self.config.transfer_data and cached.content is not None:
                mutable = bytearray(cached.content)
                mutable[in_page : in_page + take] = data[data_cursor : data_cursor + take]
                cached.content = bytes(mutable)
            cached.dirty = True
            position += take
            data_cursor += take

        tracer.host("dram_copy", timing.dram_copy_ns(size))

    def fsync(self, entry: OpenFile) -> None:
        """Flush every dirty page of the file."""
        inode = entry.inode
        writes: list[tuple[int, bytes]] = []
        for ino, page_index in self.page_cache.dirty_pages(inode.ino):
            cached = self.page_cache.peek(ino, page_index)
            assert cached is not None
            payload = cached.content if cached.content is not None else self._zero_page
            writes.append((self.fs.page_lba(inode, page_index), payload))
            self.page_cache.clean(ino, page_index)
        if writes:
            self.device.block_write(writes)


__all__ = [
    "BlockReadPath",
    "FileTable",
    "O_FINE_GRAINED",
    "O_RDONLY",
    "O_RDWR",
    "OpenFile",
]

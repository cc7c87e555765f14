"""An extent-based, Ext4-like file system over the simulated SSD.

Implements the pieces Pipette interacts with:

- hierarchical namespace (mkdir / create / lookup by path);
- extent allocation via :class:`BlockAllocator` with Ext4-style
  multi-page allocation chunks;
- the **LBA Extractor** (paper section 3.1.2): resolving an arbitrary
  byte range of a file into ``(lba, offset_in_page, length)`` pieces so
  the fine-grained path can bypass the generic block layer;
- "pre-imaged" file creation: extents are allocated and sized without
  writing data, so the deterministic NAND pre-image (see
  :func:`repro.ssd.nand.page_pattern`) stands in for pre-loaded content
  such as multi-GiB embedding tables.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from repro.kernel.fs.allocator import BlockAllocator
from repro.kernel.fs.extent import Extent
from repro.kernel.fs.inode import Inode, InodeType

#: LBAs reserved for the superblock / metadata at the volume start.
RESERVED_LBAS = 64

#: Preferred allocation chunk, in pages (matches Ext4 mballoc behaviour
#: of allocating large aligned chunks for streaming writes).
ALLOC_CHUNK_PAGES = 256


class _RangeFields(NamedTuple):
    lba: int
    offset_in_page: int
    length: int


class FileRange(_RangeFields):
    """One physically contiguous piece of a resolved byte range.

    Immutable and checked at construction.
    """

    __slots__ = ()

    def __new__(cls, lba: int, offset_in_page: int, length: int) -> "FileRange":
        if offset_in_page < 0 or length <= 0:
            raise ValueError("invalid file range")
        return tuple.__new__(cls, (lba, offset_in_page, length))


class ExtentFileSystem:
    """The mounted file system instance."""

    def __init__(self, total_pages: int, page_size: int) -> None:
        if total_pages <= RESERVED_LBAS:
            raise ValueError("volume too small")
        self.page_size = page_size
        self.allocator = BlockAllocator(total_pages, reserved=RESERVED_LBAS)
        self._ino_counter = itertools.count(2)  # ino 1 is the root
        self.root = Inode(ino=1, itype=InodeType.DIRECTORY)
        self._inodes: dict[int, Inode] = {1: self.root}

    # --- namespace -------------------------------------------------------
    @staticmethod
    def _split(path: str) -> list[str]:
        if not path.startswith("/"):
            raise ValueError(f"path must be absolute: {path!r}")
        parts = [part for part in path.split("/") if part]
        if any(part in (".", "..") for part in parts):
            raise ValueError("'.'/'..' components are not supported")
        return parts

    def _walk(self, parts: list[str]) -> Inode:
        node = self.root
        for part in parts:
            node.require_dir()
            ino = node.entries.get(part)
            if ino is None:
                raise FileNotFoundError("/" + "/".join(parts))
            node = self._inodes[ino]
        return node

    def lookup(self, path: str) -> Inode:
        """Resolve a path to its inode."""
        return self._walk(self._split(path))

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except FileNotFoundError:
            return False

    def mkdir(self, path: str) -> Inode:
        """Create one directory (parents must exist)."""
        parts = self._split(path)
        if not parts:
            raise FileExistsError("/")
        parent = self._walk(parts[:-1])
        parent.require_dir()
        name = parts[-1]
        if name in parent.entries:
            raise FileExistsError(path)
        inode = Inode(ino=next(self._ino_counter), itype=InodeType.DIRECTORY)
        self._inodes[inode.ino] = inode
        parent.entries[name] = inode.ino
        return inode

    def makedirs(self, path: str) -> None:
        """Create a directory and any missing ancestors."""
        parts = self._split(path)
        for depth in range(1, len(parts) + 1):
            prefix = "/" + "/".join(parts[:depth])
            if not self.exists(prefix):
                self.mkdir(prefix)

    def create(self, path: str, size: int = 0) -> Inode:
        """Create a regular file, pre-imaged to ``size`` bytes."""
        parts = self._split(path)
        if not parts:
            raise IsADirectoryError("/")
        parent = self._walk(parts[:-1])
        parent.require_dir()
        name = parts[-1]
        if name in parent.entries:
            raise FileExistsError(path)
        inode = Inode(ino=next(self._ino_counter), itype=InodeType.FILE)
        self._inodes[inode.ino] = inode
        parent.entries[name] = inode.ino
        if size:
            try:
                self.truncate(inode, size)
            except MemoryError:
                # Roll back the namespace entry and any partial extents.
                for extent in inode.extents:
                    self.allocator.free(extent.physical_start, extent.length)
                del parent.entries[name]
                del self._inodes[inode.ino]
                raise
        return inode

    def listdir(self, path: str) -> list[str]:
        """Entry names of a directory, sorted."""
        inode = self.lookup(path) if path != "/" else self.root
        inode.require_dir()
        return sorted(inode.entries)

    def stat(self, path: str) -> dict[str, int | str]:
        """POSIX-ish stat: ino, size, type, nlink, extent count."""
        inode = self.lookup(path)
        return {
            "ino": inode.ino,
            "size": inode.size,
            "type": inode.itype.value,
            "nlink": inode.nlink,
            "extents": len(inode.extents),
            "blocks": inode.extents.mapped_pages,
        }

    def rename(self, old_path: str, new_path: str) -> None:
        """Move a file or directory to a new name (atomic in-model)."""
        old_parts = self._split(old_path)
        new_parts = self._split(new_path)
        if not old_parts or not new_parts:
            raise ValueError("cannot rename the root")
        old_parent = self._walk(old_parts[:-1])
        ino = old_parent.entries.get(old_parts[-1])
        if ino is None:
            raise FileNotFoundError(old_path)
        new_parent = self._walk(new_parts[:-1])
        new_parent.require_dir()
        if new_parts[-1] in new_parent.entries:
            raise FileExistsError(new_path)
        del old_parent.entries[old_parts[-1]]
        new_parent.entries[new_parts[-1]] = ino

    def unlink(self, path: str) -> None:
        """Remove a file and free its extents."""
        parts = self._split(path)
        parent = self._walk(parts[:-1])
        ino = parent.entries.get(parts[-1])
        if ino is None:
            raise FileNotFoundError(path)
        inode = self._inodes[ino]
        inode.require_file()
        for extent in inode.extents:
            self.allocator.free(extent.physical_start, extent.length)
        del parent.entries[parts[-1]]
        del self._inodes[ino]

    def inode_by_number(self, ino: int) -> Inode:
        return self._inodes[ino]

    # --- size / allocation ------------------------------------------------
    def truncate(self, inode: Inode, size: int) -> None:
        """Grow a file to ``size`` bytes, allocating extents for new pages."""
        inode.require_file()
        if size < inode.size:
            raise NotImplementedError("shrinking files is not supported")
        pages_needed = -(-size // self.page_size)
        first_unmapped = inode.extents.last_mapped_page() + 1
        remaining = pages_needed - first_unmapped
        logical = first_unmapped
        while remaining > 0:
            chunk = min(remaining, ALLOC_CHUNK_PAGES)
            for physical, length in self.allocator.allocate_best_effort(chunk):
                inode.extents.insert(Extent(logical, physical, length))
                logical += length
            remaining -= chunk
        inode.size = size

    # --- LBA extraction (the fine-grained read path's file-system hook) ----
    def page_lba(self, inode: Inode, page_index: int) -> int:
        """Device LBA backing one logical page of the file."""
        return inode.extents.translate(page_index)

    def extract_ranges(self, inode: Inode, offset: int, length: int) -> list[FileRange]:
        """The LBA Extractor: byte range -> physically contiguous pieces.

        Bypasses the generic block layer; used by Pipette's Fine-Grained
        Access Constructor to build reconstructed read requests.
        """
        inode.require_file()
        if offset < 0 or length <= 0:
            raise ValueError("invalid range")
        if offset + length > inode.size:
            raise ValueError(
                f"range [{offset}, {offset + length}) beyond EOF at {inode.size}"
            )
        ranges: list[FileRange] = []
        position = offset
        end = offset + length
        while position < end:
            page_index = position // self.page_size
            in_page = position % self.page_size
            take = min(end - position, self.page_size - in_page)
            lba = inode.extents.translate(page_index)
            # Merge with the previous piece when physically contiguous.
            if ranges:
                last = ranges[-1]
                last_end_lba = last.lba + (last.offset_in_page + last.length) // self.page_size
                last_end_off = (last.offset_in_page + last.length) % self.page_size
                if last_end_lba == lba and last_end_off == in_page:
                    ranges[-1] = FileRange(last.lba, last.offset_in_page, last.length + take)
                    position += take
                    continue
            ranges.append(FileRange(lba, in_page, take))
            position += take
        return ranges


__all__ = ["ALLOC_CHUNK_PAGES", "ExtentFileSystem", "FileRange", "RESERVED_LBAS"]

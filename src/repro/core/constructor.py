"""Fine-Grained Access Constructor (paper section 3.1.2).

On a fine-grained cache miss, the Constructor asks the LBA Extractor
(a file-system extension, :meth:`ExtentFileSystem.extract_ranges`) for
the flash locations of the needed bytes — bypassing the generic block
layer — and writes one Info Area record per physically contiguous piece
(destination address, byte offset, byte length; host-side step 3a of
Figure 4).  The ranges it returns are the reconstructed read the
device-side Read Engine executes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.read_cache.info_area import InfoArea, InfoRecord
from repro.kernel.fs.ext4 import ExtentFileSystem
from repro.kernel.fs.inode import Inode


@dataclass(slots=True)
class FineReadRange:
    """One byte range of a reconstructed fine-grained read."""

    lba: int
    offset_in_page: int
    length: int
    #: Destination address inside the HMB (from the Info Area record).
    dest_addr: int


@dataclass
class FineGrainedConstructor:
    """Builds reconstructed reads and tracks Info Area production."""

    fs: ExtentFileSystem
    info_area: InfoArea
    constructed: int = 0

    def construct_multi(
        self, inode: Inode, requests: list[tuple[int, int, int]]
    ) -> list[FineReadRange]:
        """Resolve LBAs and stage Info records for (offset, size, dest) reads.

        One reconstructed read covers them all: the first is the missed
        read, any others are spatial-prefetch neighbors riding along
        and sharing its flash page senses.
        """
        ranges: list[FineReadRange] = []
        for offset, size, dest_addr in requests:
            cursor = dest_addr
            for piece in self.fs.extract_ranges(inode, offset, size):
                record = InfoRecord(
                    dest_addr=cursor,
                    byte_offset=piece.offset_in_page,
                    byte_length=piece.length,
                )
                self.info_area.push(record)
                ranges.append(
                    FineReadRange(
                        lba=piece.lba,
                        offset_in_page=piece.offset_in_page,
                        length=piece.length,
                        dest_addr=cursor,
                    )
                )
                cursor += piece.length
        self.constructed += 1
        return ranges


__all__ = ["FineGrainedConstructor", "FineReadRange"]

"""Write-through page updates for systems without a host page cache.

2B-SSD and Pipette-w/o-cache bypass the page cache on reads, so their
writes must be immediately durable (otherwise subsequent byte reads
would observe stale flash).  A write is a read-modify-write of each
affected page straight against the device.
"""

from __future__ import annotations

from repro.kernel.fs.ext4 import ExtentFileSystem
from repro.kernel.fs.inode import Inode
from repro.ssd.device import SSDDevice


def direct_write(
    device: SSDDevice,
    fs: ExtentFileSystem,
    inode: Inode,
    offset: int,
    data: bytes,
) -> None:
    """Read-modify-write ``data`` at ``offset``.

    The device records each page's read and write into the active
    trace.
    """
    size = len(data)
    if size == 0:
        return
    if offset < 0:
        raise ValueError("negative offset")
    if offset + size > inode.size:
        fs.truncate(inode, offset + size)
    page_size = fs.page_size
    position = offset
    end = offset + size
    cursor = 0
    while position < end:
        page_index = position // page_size
        in_page = position % page_size
        take = min(end - position, page_size - in_page)
        lba = fs.page_lba(inode, page_index)
        if take == page_size:
            content: bytes | None = None
        else:
            content = device.block_read([lba]).get(lba)
        if content is None:
            content = bytes(page_size)
        mutable = bytearray(content)
        mutable[in_page : in_page + take] = data[cursor : cursor + take]
        device.block_write([(lba, bytes(mutable))])
        position += take
        cursor += take


__all__ = ["direct_write"]

"""Host I/O stack substrate: file system, page cache, read-ahead, VFS."""

from repro.kernel.page_cache import PageCache
from repro.kernel.readahead import ReadaheadState
from repro.kernel.vfs import O_FINE_GRAINED, O_RDONLY, O_RDWR, BlockReadPath, FileTable

__all__ = [
    "BlockReadPath",
    "FileTable",
    "O_FINE_GRAINED",
    "O_RDONLY",
    "O_RDWR",
    "PageCache",
    "ReadaheadState",
]

"""End-to-end tests of the conventional VFS read/write path."""

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.kernel.fs.ext4 import ExtentFileSystem
from repro.kernel.page_cache import PageCache
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR, BlockReadPath, FileTable
from repro.ssd.device import SSDDevice
from repro.ssd.nand import page_pattern
from tests.conftest import root_trace


@pytest.fixture
def stack():
    spec = SSDSpec(capacity_bytes=64 * MIB, mapping_region_bytes=2 * MIB)
    config = SimConfig(
        ssd=spec,
        cache=CacheConfig(shared_memory_bytes=1 * MIB, fgrc_bytes=256 * 1024),
    )
    device = SSDDevice(config)
    fs = ExtentFileSystem(total_pages=spec.total_pages, page_size=spec.page_size)
    page_cache = PageCache(capacity_bytes=config.cache.shared_memory_bytes, page_size=4096)
    path = BlockReadPath(config, device, fs, page_cache)
    table = FileTable(config)
    inode = fs.create("/f.bin", 1 * MIB)
    entry = table.install(inode, O_RDWR)
    return device, fs, page_cache, path, entry


def expected_bytes(fs, inode, offset, size):
    """Pre-image content computed independently of the read path."""
    out = bytearray()
    position = offset
    while position < offset + size:
        page = position // fs.page_size
        in_page = position % fs.page_size
        take = min(offset + size - position, fs.page_size - in_page)
        lba = fs.page_lba(inode, page)
        out += page_pattern(lba, fs.page_size)[in_page : in_page + take]
        position += take
    return bytes(out)


def test_read_returns_preimage(stack):
    device, fs, _, path, entry = stack
    with root_trace(device.tracer) as trace:
        data = path.read(entry, 100, 300)
    assert data == expected_bytes(fs, entry.inode, 100, 300)
    assert trace.latency_ns() > 0


def test_read_page_crossing(stack):
    _, fs, _, path, entry = stack
    data = path.read(entry, 4090, 100)
    assert data == expected_bytes(fs, entry.inode, 4090, 100)


def test_second_read_hits_page_cache(stack):
    device, _, page_cache, path, entry = stack
    with root_trace(device.tracer) as cold:
        path.read(entry, 0, 128)
    traffic_after_first = device.traffic.device_to_host_bytes
    with root_trace(device.tracer) as warm:
        path.read(entry, 0, 128)
    assert warm.latency_ns() < cold.latency_ns()
    assert device.traffic.device_to_host_bytes == traffic_after_first
    assert page_cache.counter.hits >= 1


def test_write_then_read_sees_new_data(stack):
    _, _, _, path, entry = stack
    path.write(entry, 500, b"NEWDATA!")
    data = path.read(entry, 498, 12)
    assert data[2:10] == b"NEWDATA!"


def test_write_marks_dirty_and_fsync_flushes(stack):
    device, fs, page_cache, path, entry = stack
    path.write(entry, 0, b"Z" * 10)
    assert page_cache.dirty_pages(entry.inode.ino)
    path.fsync(entry)
    assert not page_cache.dirty_pages(entry.inode.ino)
    # Data is durable: drop the cache and re-read from flash.
    page_cache.invalidate_file(entry.inode.ino)
    data = path.read(entry, 0, 10)
    assert data == b"Z" * 10


def test_dirty_eviction_writes_back(stack):
    device, fs, page_cache, path, entry = stack
    path.write(entry, 0, b"Q" * 10)
    # Shrink to one page, then touch a different page: the dirty page
    # is evicted and must be written back to flash on the way out.
    page_cache.set_capacity(page_cache.page_size)
    path.read(entry, 8192, 16)
    assert page_cache.peek(entry.inode.ino, 0) is None
    data = path.read(entry, 0, 10)
    assert data == b"Q" * 10


def test_write_extends_file(stack):
    _, _, _, path, entry = stack
    old_size = entry.inode.size
    path.write(entry, old_size, b"tail")
    assert entry.inode.size == old_size + 4


def test_read_beyond_eof_rejected(stack):
    _, _, _, path, entry = stack
    with pytest.raises(ValueError):
        path.read(entry, entry.inode.size - 10, 20)
    with pytest.raises(ValueError):
        path.read(entry, -1, 10)
    with pytest.raises(ValueError):
        path.read(entry, 0, 0)


def test_sequential_reads_trigger_readahead_traffic(stack):
    device, _, _, path, entry = stack
    path.read(entry, 0, 4096)
    path.read(entry, 4096, 4096)  # sequential -> window opens
    # More pages were transferred than the two demanded.
    assert device.traffic.device_to_host_bytes > 2 * 4096


def test_file_table_lifecycle():
    config = SimConfig()
    table = FileTable(config)
    fs = ExtentFileSystem(total_pages=1024, page_size=4096)
    inode = fs.create("/f", 4096)
    entry = table.install(inode, O_RDWR | O_FINE_GRAINED)
    assert entry.fine_grained
    assert table.get(entry.fd) is entry
    table.close(entry.fd)
    with pytest.raises(OSError):
        table.get(entry.fd)
    with pytest.raises(OSError):
        table.close(entry.fd)

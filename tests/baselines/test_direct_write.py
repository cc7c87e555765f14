"""Edge tests for the write-through (direct) write helper."""

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.baselines._direct_write import direct_write
from repro.kernel.fs.ext4 import ExtentFileSystem
from repro.ssd.device import SSDDevice
from tests.conftest import root_trace


@pytest.fixture
def rig():
    spec = SSDSpec(capacity_bytes=64 * MIB, mapping_region_bytes=2 * MIB)
    config = SimConfig(
        ssd=spec, cache=CacheConfig(shared_memory_bytes=MIB, fgrc_bytes=512 * 1024)
    )
    device = SSDDevice(config)
    fs = ExtentFileSystem(total_pages=spec.total_pages, page_size=spec.page_size)
    inode = fs.create("/f", 64 * 1024)
    return device, fs, inode


def read_back(device, fs, inode, offset, size):
    out = bytearray()
    position = offset
    while position < offset + size:
        page = position // 4096
        in_page = position % 4096
        take = min(offset + size - position, 4096 - in_page)
        lba = fs.page_lba(inode, page)
        content = device.block_read([lba])[lba]
        out += content[in_page : in_page + take]
        position += take
    return bytes(out)


def test_partial_page_rmw(rig):
    device, fs, inode = rig
    before = read_back(device, fs, inode, 0, 4096)
    direct_write(device, fs, inode, 100, b"hello")
    after = read_back(device, fs, inode, 0, 4096)
    assert after[100:105] == b"hello"
    assert after[:100] == before[:100]
    assert after[105:] == before[105:]


def test_full_page_write_skips_read(rig):
    device, fs, inode = rig
    reads_before = device.nand.reads
    direct_write(device, fs, inode, 4096, b"\xaa" * 4096)
    # Aligned full-page overwrite: program only, no RMW fetch.
    assert device.nand.reads == reads_before
    assert read_back(device, fs, inode, 4096, 4096) == b"\xaa" * 4096


def test_multi_page_spanning_write(rig):
    device, fs, inode = rig
    payload = bytes(range(256)) * 32  # 8192 bytes
    direct_write(device, fs, inode, 2048, payload)
    assert read_back(device, fs, inode, 2048, 8192) == payload


def test_write_extends_file(rig):
    device, fs, inode = rig
    old_size = inode.size
    direct_write(device, fs, inode, old_size, b"tail")
    assert inode.size == old_size + 4
    assert read_back(device, fs, inode, old_size, 4) == b"tail"


def test_zero_length_write_is_noop(rig):
    device, fs, inode = rig
    with root_trace(device.tracer) as trace:
        direct_write(device, fs, inode, 0, b"")
    assert trace.stages == []
    assert trace.latency_ns() == 0.0


def test_negative_offset_rejected(rig):
    device, fs, inode = rig
    with pytest.raises(ValueError):
        direct_write(device, fs, inode, -1, b"x")

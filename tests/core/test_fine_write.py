"""Tests for the fine-grained write extension (pipette-rw)."""

import pytest

from repro.kernel.vfs import O_RDWR
from repro.system import available_systems, build_system

from tests.conftest import make_open_file, small_sim_config


@pytest.fixture
def system():
    return build_system("pipette-rw", small_sim_config())


def test_registered():
    assert "pipette-rw" in available_systems()


def test_read_your_writes_from_buffer(system):
    fd = make_open_file(system)
    system.write(fd, 1000, b"tinywrite")
    assert system.write_buffer.absorbed == 1
    assert system.read(fd, 1000, 9) == b"tinywrite"


def test_partial_overlay_on_larger_read(system):
    fd = make_open_file(system)
    base = system.read(fd, 960, 100)
    system.write(fd, 1000, b"XYZ")
    merged = system.read(fd, 960, 100)
    expected = bytearray(base)
    expected[40:43] = b"XYZ"
    assert merged == bytes(expected)


def test_block_path_read_sees_buffered_writes(system):
    fd = make_open_file(system)
    system.write(fd, 8192 + 10, b"ab")
    data = system.read(fd, 8192, 4096)  # block-path read (page-sized)
    assert data[10:12] == b"ab"


def test_small_writes_do_not_touch_device(system):
    fd = make_open_file(system)
    before = system.device.controller.pages_sensed
    writes_before = system.device.ftl.stats.host_writes
    for index in range(10):
        system.write(fd, index * 64, b"x" * 8)
    assert system.device.controller.pages_sensed == before
    assert system.device.ftl.stats.host_writes == writes_before


def test_fsync_flushes_and_persists(system):
    fd = make_open_file(system)
    system.write(fd, 512, b"durable")
    system.fsync(fd)
    assert system.write_buffer.used_bytes == 0
    ino = system.fs.lookup("/data/file.bin").ino
    system.page_cache.invalidate_file(ino)
    assert system.read(fd, 512, 7) == b"durable"


def test_overbudget_triggers_flush(system):
    fd = make_open_file(system)
    budget = system.write_buffer.capacity_bytes
    chunk = 1024
    for index in range(budget // chunk + 2):
        system.write(fd, index * 4096, b"w" * chunk)
    assert system.write_buffer.flushes >= 1
    assert system.write_buffer.used_bytes <= budget


def test_large_write_flushes_first_and_takes_block_path(system):
    fd = make_open_file(system)
    system.write(fd, 0, b"small")
    system.write(fd, 0, b"L" * 4096)  # page-sized: block path
    assert system.write_buffer.used_bytes == 0
    assert system.read(fd, 0, 5) == b"LLLLL"


def test_newest_write_wins_on_same_range(system):
    fd = make_open_file(system)
    system.write(fd, 100, b"old!")
    system.write(fd, 100, b"new!")
    assert system.read(fd, 100, 4) == b"new!"
    # The shadowed entry was dropped from the buffer.
    assert system.write_buffer.used_bytes == 4


#: An older write of 20 bytes at 4085 (across a page boundary), then a
#: newer one: (offset, length) starting before, at and after it.
OLDER = (4085, 20)


@pytest.mark.parametrize(
    "newer",
    [(4081, 10), (4081, 30), (4085, 8), (4085, 28), (4090, 5), (4090, 25)],
    ids=[
        "before-shorter",
        "before-longer",
        "at-shorter",
        "at-longer",
        "after-shorter",
        "after-longer",
    ],
)
def test_newer_write_wins_where_it_overlaps(system, newer):
    fd = make_open_file(system)
    window = (4075, 50)
    reference = bytearray(system.read(fd, *window))
    for (offset, length), fill in ((OLDER, 0xAA), (newer, 0xBB)):
        payload = bytes([fill]) * length
        system.write(fd, offset, payload)
        reference[offset - window[0] : offset - window[0] + length] = payload
    assert system.read(fd, *window) == bytes(reference)
    pending = system.write_buffer.overlapping(system.fs.lookup("/data/file.bin").ino, *window)
    for left, right in zip(pending, pending[1:]):
        assert left.offset + left.length <= right.offset
    assert system.write_buffer.used_bytes == sum(entry.length for entry in pending)
    system.fsync(fd)
    block_fd = system.open("/data/file.bin", O_RDWR)
    assert system.read(block_fd, *window) == bytes(reference)


def test_write_invalidates_read_cache(system):
    fd = make_open_file(system)
    system.read(fd, 2000, 64)
    system.read(fd, 2000, 64)
    assert system.cache.counter.hits == 1
    system.write(fd, 2010, b"zz")
    data = system.read(fd, 2000, 64)
    assert data[10:12] == b"zz"


def test_consistency_against_reference_model(system):
    """Random interleaving of small writes and reads matches a bytearray."""
    import random

    fd = make_open_file(system, size=65536)
    reference = bytearray(system.read(fd, 0, 65536))
    rng = random.Random(7)
    for step in range(200):
        if rng.random() < 0.4:
            size = rng.choice([4, 16, 64, 200])
            offset = rng.randrange(0, 65536 - size)
            payload = bytes([step % 256]) * size
            system.write(fd, offset, payload)
            reference[offset : offset + size] = payload
            if rng.random() < 0.1:
                system.fsync(fd)
        else:
            size = rng.choice([8, 128, 1000, 4096])
            offset = rng.randrange(0, 65536 - size)
            assert system.read(fd, offset, size) == bytes(
                reference[offset : offset + size]
            ), f"diverged at step {step}"


def test_stats_exposed(system):
    fd = make_open_file(system)
    system.write(fd, 0, b"x")
    stats = system.cache_stats()
    assert stats["write_buffer_absorbed"] == 1.0
    assert "write_buffer_flushes" in stats

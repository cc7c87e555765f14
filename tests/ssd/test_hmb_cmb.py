"""Tests for the HMB memory region."""

import pytest

from repro.config import MIB
from repro.ssd.hmb import HostMemoryBuffer


def test_hmb_roundtrip():
    hmb = HostMemoryBuffer(size=4096)
    hmb.write(100, b"hello")
    assert hmb.read(100, 5) == b"hello"


def test_hmb_zero_initialized():
    hmb = HostMemoryBuffer(size=64)
    assert hmb.read(0, 64) == bytes(64)


def test_hmb_untouched_bytes_read_zero_far_from_writes():
    hmb = HostMemoryBuffer(size=64 * MIB)
    hmb.write(0, b"\xff" * 4096)
    assert hmb.read(64 * MIB - 8, 8) == bytes(8)


def test_hmb_write_across_page_boundary_roundtrips():
    hmb = HostMemoryBuffer(size=4 * 4096)
    payload = bytes(range(256)) * 2
    hmb.write(4096 - 100, payload)
    assert hmb.read(4096 - 100, len(payload)) == payload
    assert hmb.read(4096 - 101, 1) == b"\x00"
    assert hmb.read(4096 - 100 + len(payload), 1) == b"\x00"


def test_hmb_zero_length_access_at_end():
    hmb = HostMemoryBuffer(size=64)
    hmb.write(64, b"")
    assert hmb.read(64, 0) == b""


def test_hmb_read_returns_a_copy():
    hmb = HostMemoryBuffer(size=4096)
    hmb.write(10, b"before")
    data = hmb.read(10, 6)
    hmb.write(10, b"after!")
    assert isinstance(data, bytes)
    assert data == b"before"
    assert hmb.read(10, 6) == b"after!"


def test_hmb_bounds_checked():
    hmb = HostMemoryBuffer(size=64)
    for addr, payload in [(60, b"too long"), (-1, b"x"), (65, b"")]:
        with pytest.raises(ValueError):
            hmb.write(addr, payload)
    for addr, length in [(-1, 4), (0, -1), (60, 5), (65, 0)]:
        with pytest.raises(ValueError):
            hmb.read(addr, length)


def test_hmb_requires_positive_size():
    with pytest.raises(ValueError):
        HostMemoryBuffer(size=0)

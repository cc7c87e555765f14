"""Shared fixtures for the Pipette reproduction test suite."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.config import KIB, MIB, CacheConfig, SimConfig, SSDSpec
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.sim.trace import StageTrace, Tracer
from repro.system import build_system


def small_sim_config(**overrides) -> SimConfig:
    """A small but fully featured configuration for unit tests."""
    cache = CacheConfig(
        shared_memory_bytes=1 * MIB,
        fgrc_bytes=512 * KIB,
        tempbuf_bytes=64 * KIB,
        info_area_entries=256,
    )
    spec = SSDSpec(capacity_bytes=256 * MIB, mapping_region_bytes=2 * MIB)
    base = SimConfig(ssd=spec, cache=cache, transfer_data=True)
    if overrides:
        base = base.scaled(**overrides)
    return base


@pytest.fixture
def sim_config() -> SimConfig:
    return small_sim_config()


@pytest.fixture
def pipette(sim_config):
    return build_system("pipette", sim_config)


@pytest.fixture
def block_io(sim_config):
    return build_system("block-io", sim_config)


def make_open_file(system, path="/data/file.bin", size=1 * MIB, flags=O_RDWR | O_FINE_GRAINED):
    """Create a pre-imaged file on a system and open it."""
    system.create_file(path, size)
    return system.open(path, flags)


def read_latency_ns(system, fd: int, offset: int, size: int) -> float:
    """Read once and return that read's critical-path latency."""
    before = system.latency.total_ns
    system.read(fd, offset, size)
    return system.latency.total_ns - before


@pytest.fixture
def open_fd(pipette):
    return make_open_file(pipette)


@contextmanager
def root_trace(tracer: Tracer) -> Iterator[StageTrace]:
    """Record the block's stages into one root trace, as a request would.

    Device, driver and VFS calls return no latency; a test reads it off
    the yielded trace (``trace.latency_ns()``) after the block.
    """
    trace = tracer.begin("request")
    try:
        yield trace
    finally:
        tracer.end()

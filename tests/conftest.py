"""Shared fixtures for the Pipette reproduction test suite."""

from __future__ import annotations

import random
import time
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


#: The ``time`` functions a simulated call must never read.
WALL_CLOCKS = (
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
)


def _wall_clock_read(*args, **kwargs):
    raise AssertionError("wall clock read inside a simulated call")


@contextmanager
def pure_simulation() -> Iterator[None]:
    """Fail the block if it reads a wall clock or moves the global RNG.

    Every result is a function of config and seed on the virtual clock,
    so a simulated call may not read ``time.time``, ``monotonic`` or
    ``perf_counter`` (or their ``_ns`` forms): each raises while the
    block runs.  It may not touch the module-level ``random`` stream
    either: a reseed or a draw changes ``random.getstate()``, which is
    compared when the block exits.

    Scope it to one simulated call, not a session: hypothesis and
    pytest use the global stream and the clock between calls.  A clock
    bound at import (``from time import monotonic``) escapes the patch.
    """
    saved = {name: getattr(time, name) for name in WALL_CLOCKS}
    state = random.getstate()
    for name in WALL_CLOCKS:
        setattr(time, name, _wall_clock_read)
    try:
        yield
    finally:
        for name, clock in saved.items():
            setattr(time, name, clock)
    assert random.getstate() == state, "global random state changed inside a simulated call"

"""Tests for the Detector and Dispatcher steps of Pipette's read path.

Both steps are one predicate in ``PipetteSystem._read``: a read takes
the fine-grained path iff its file was opened with ``O_FINE_GRAINED``
(the Detector's permission check) and ``0 < size < threshold`` (the
Dispatcher's size rule).  Only fine-path reads probe the FGRC, so
``cache.counter.accesses`` counts the reads routed there.
"""

from repro.kernel.vfs import O_FINE_GRAINED, O_RDONLY
from repro.system import build_system

from tests.conftest import make_open_file, small_sim_config


def make_system():
    return build_system("pipette", small_sim_config())


def test_detector_permits_flagged_files():
    system = make_system()
    fd = make_open_file(system, flags=O_FINE_GRAINED)
    system.read(fd, 100, 64)
    assert system.cache.counter.accesses == 1


def test_detector_denies_unflagged_files():
    system = make_system()
    fd = make_open_file(system, flags=O_RDONLY)
    system.read(fd, 100, 64)
    assert system.cache.counter.accesses == 0
    assert system.cache.info_area.produced == 0


def test_dispatcher_routes_by_size():
    system = make_system()
    assert system.config.pipette.dispatch_threshold_bytes == 4096
    fd = make_open_file(system, flags=O_FINE_GRAINED)
    routed = []
    for offset, size in [(0, 128), (8192, 4095), (16384, 4096), (65536, 65536)]:
        before = system.cache.counter.accesses
        system.read(fd, offset, size)
        routed.append(system.cache.counter.accesses - before)
    assert routed == [1, 1, 0, 0]


def test_dispatcher_requires_flag():
    system = make_system()
    fd = make_open_file(system, flags=O_RDONLY)
    system.read(fd, 0, 128)
    assert system.cache.counter.accesses == 0


def test_dispatcher_counts_decisions():
    system = make_system()
    fd = make_open_file(system, flags=O_FINE_GRAINED)
    system.read(fd, 0, 100)
    system.read(fd, 8192, 5000)
    assert system.cache.counter.accesses == 1
    assert system.engine.commands_handled == 1

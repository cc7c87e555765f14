"""End-to-end tests of the full Pipette framework."""

import pytest

from repro.config import TimingModel
from repro.kernel.vfs import O_FINE_GRAINED, O_RDONLY, O_RDWR
from repro.sim.trace import HOST
from repro.system import build_system

from tests.conftest import make_open_file, read_latency_ns, small_sim_config


@pytest.fixture
def system():
    return build_system("pipette", small_sim_config())


def test_fine_read_miss_then_hit_latency(system):
    fd = make_open_file(system)
    miss_latency = read_latency_ns(system, fd, 1000, 128)
    hit_latency = read_latency_ns(system, fd, 1000, 128)
    # The second read is a cache hit, far cheaper than the miss.
    assert system.cache.counter.hits == 1
    assert hit_latency < miss_latency / 10
    assert hit_latency < 5_000  # ~2 us, the paper's anchor


#: Every host-stage cost of the fine path, each distinct and off its default.
HOST_COSTS = {
    "fine_stack_ns": 1_211,
    "page_cache_hit_ns": 2_207,
    "fgrc_hit_ns": 1_513,
    "fine_miss_host_ns": 1_817,
    "completion_ns": 1_019,
    "block_stack_ns": 2_501,
    "block_layer_ns": 2_503,
}


def test_fine_path_records_the_configured_host_costs():
    default = TimingModel()
    assert all(getattr(default, name) != ns for name, ns in HOST_COSTS.items())
    timing = TimingModel(dram_bw_bytes_per_ns=7.0, **HOST_COSTS)
    system = build_system("pipette", small_sim_config(timing=timing))
    system.create_file("/data/file.bin", 1 << 20)
    fine = system.open("/data/file.bin", O_RDWR | O_FINE_GRAINED)
    plain = system.open("/data/file.bin", O_RDONLY)
    traces = []
    begin = system.tracer.begin

    def recording(name):
        trace = begin(name)
        traces.append(trace)
        return trace

    system.tracer.begin = recording
    system.read(fine, 1000, 128)  # FGRC miss
    system.read(fine, 1000, 128)  # FGRC hit
    system.read(plain, 8192, 4096)  # block read: page 2 now resident
    system.read(fine, 8200, 64)  # page-cache hit on the fine path
    miss, hit, block, page_hit = (
        [(stage.name, stage.ns) for stage in trace.stages if stage.resource == HOST]
        for trace in traces
    )
    assert miss == [
        ("fine_stack", 1_211),
        ("fine_miss_host", 1_817),
        ("completion", 1_019),
        ("dram_copy", 128 / 7.0),
    ]
    assert hit == [("fine_stack", 1_211), ("fgrc_hit", 1_513), ("dram_copy", 128 / 7.0)]
    assert page_hit == [("fine_stack", 1_211), ("page_cache_hit", 2_207), ("dram_copy", 64 / 7.0)]
    assert block == [
        ("block_stack", 2_501),
        ("block_layer", 2_503),
        ("completion", 1_019),
        ("dram_copy", 4096 / 7.0),
    ]
    assert system.cache.counter.hits == 1
    assert system.fine_page_cache_hits == 1


def test_fine_read_returns_correct_bytes(system):
    fd = make_open_file(system)
    reference = build_system("block-io", small_sim_config())
    ref_fd = make_open_file(reference)
    for offset, size in [(0, 8), (1000, 128), (4090, 20), (65536, 512)]:
        assert system.read(fd, offset, size) == reference.read(ref_fd, offset, size)


def test_hit_returns_same_bytes_as_miss(system):
    fd = make_open_file(system)
    first = system.read(fd, 777, 99)
    second = system.read(fd, 777, 99)
    assert first == second


def test_large_reads_take_block_path(system):
    fd = make_open_file(system)
    system.read(fd, 0, 4096)
    assert system.cache.counter.accesses == 0
    assert system.engine.commands_handled == 0


def test_unflagged_file_never_uses_fine_path(system):
    fd = make_open_file(system, path="/plain.bin", flags=O_RDONLY)
    system.read(fd, 100, 64)
    assert system.cache.counter.accesses == 0


def test_traffic_counts_demanded_bytes_on_fine_path(system):
    fd = make_open_file(system)
    system.read(fd, 0, 128)
    assert system.device.traffic.device_to_host_bytes == 128


def test_write_invalidates_cached_range(system):
    fd = make_open_file(system)
    system.read(fd, 1000, 128)
    system.read(fd, 1000, 128)
    assert system.cache.counter.hits == 1
    system.write(fd, 1050, b"FRESH")
    data = system.read(fd, 1000, 128)
    assert data[50:55] == b"FRESH"


def test_write_then_fine_read_served_from_page_cache(system):
    fd = make_open_file(system)
    system.write(fd, 2000, b"hello world")
    before = system.fine_page_cache_hits
    data = system.read(fd, 2000, 11)
    assert data == b"hello world"
    assert system.fine_page_cache_hits == before + 1


def test_consistency_after_eviction_to_flash(system):
    fd = make_open_file(system)
    system.write(fd, 3000, b"durable!")
    system.fsync(fd)
    system.page_cache.invalidate_file(system.fs.lookup("/data/file.bin").ino)
    data = system.read(fd, 3000, 8)
    assert data == b"durable!"


def test_low_reuse_data_stages_through_tempbuf():
    import dataclasses

    config = small_sim_config()
    config = config.scaled(cache=dataclasses.replace(config.cache, initial_threshold=1))
    system = build_system("pipette", config)
    fd = make_open_file(system)
    system.read(fd, 0, 64)  # first touch: below threshold -> TempBuf
    assert system.cache.tempbuf_passes == 1
    assert system.cache.admissions == 0
    system.read(fd, 0, 64)  # second touch admits
    assert system.cache.admissions == 1


def test_per_file_lookup_table_created_on_open(system):
    make_open_file(system)
    ino = system.fs.lookup("/data/file.bin").ino
    assert ino in system.cache.tables


def test_cache_stats_exposed(system):
    fd = make_open_file(system)
    system.read(fd, 0, 128)
    stats = system.cache_stats()
    for key in ("fgrc_hit_ratio", "fgrc_usage_bytes", "page_cache_hit_ratio"):
        assert key in stats


def test_engine_installed_for_vendor_opcode(system):
    fd = make_open_file(system)
    system.read(fd, 0, 128)
    assert system.engine.commands_handled == 1


def test_transfer_data_false_mode():
    system = build_system("pipette", small_sim_config(transfer_data=False))
    fd = make_open_file(system)
    assert system.read(fd, 0, 128) is None
    assert system.read(fd, 0, 128) is None  # hit path
    assert system.cache.counter.hits == 1
    assert system.device.traffic.device_to_host_bytes == 128

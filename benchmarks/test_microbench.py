"""Microbenchmarks of the hot simulator primitives (real wall-clock).

Unlike the experiment benches (which reproduce paper artifacts in
virtual time), these measure the Python implementation itself.  CI runs
this file with ``--benchmark-disable``: each bench body runs once, so a
bench that breaks or raises fails CI, but CI compares no timings.  To
see a hot-path regression, run the file on both trees and compare:
``PYTHONPATH=src python -m pytest benchmarks/test_microbench.py``.
"""

import itertools
import random

import pytest

from repro.analysis.digest import digest_config
from repro.cluster.ring import HashRing
from repro.config import KIB, MIB, CacheConfig, PipetteConfig
from repro.core.read_cache.cache import FineGrainedReadCache
from repro.kernel.fs.ext4 import ExtentFileSystem
from repro.kernel.page_cache import PageCache
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.serve.nvme_mq import MultiQueueNvme
from repro.sim.resources import ResourceModel
from repro.sim.trace import Tracer
from repro.ssd.hmb import HostMemoryBuffer
from repro.system import build_system
from repro.workloads.zipf import ZipfSampler


@pytest.fixture
def cache():
    cache_config = CacheConfig(
        shared_memory_bytes=8 * MIB,
        fgrc_bytes=4 * MIB,
        tempbuf_bytes=64 * KIB,
        info_area_entries=256,
    )
    hmb = HostMemoryBuffer(size=8 * MIB)
    page_cache = PageCache(capacity_bytes=8 * MIB, page_size=4096)
    fgrc = FineGrainedReadCache(
        cache_config, PipetteConfig(), hmb, page_cache, transfer_data=False
    )
    for index in range(10_000):
        fgrc.lookup(1, index * 128, 128)
        fgrc.admit(1, index * 128, 128)
    return fgrc


def test_fgrc_lookup_hit(benchmark, cache):
    benchmark(cache.lookup, 1, 128 * 128, 128)


def test_fgrc_lookup_miss(benchmark, cache):
    benchmark(cache.lookup, 1, 10_000_000, 128)


def test_fgrc_admit_evict_cycle(benchmark, cache):
    counter = iter(range(10_000_000))

    def admit_one():
        offset = 20_000_000 + next(counter) * 128
        cache.lookup(2, offset, 128)
        cache.admit(2, offset, 128)

    benchmark(admit_one)


def test_zipf_sample(benchmark):
    sampler = ZipfSampler(33_000_000, 0.8, random.Random(1))
    benchmark(sampler.sample)


def test_extract_ranges(benchmark):
    fs = ExtentFileSystem(total_pages=1 << 20, page_size=4096)
    inode = fs.create("/f", 64 * MIB)
    benchmark(fs.extract_ranges, inode, 12_345_678, 128)


def test_page_cache_lookup(benchmark):
    page_cache = PageCache(capacity_bytes=8 * MIB, page_size=4096)
    for page in range(2048):
        page_cache.insert(1, page, None)
    benchmark(page_cache.lookup, 1, 1024)


def test_tracer_host_stages(benchmark):
    """One root trace holding 100 host stages (the ledger writer's cost)."""
    tracer = Tracer(ResourceModel(channels=8))
    host = tracer.host

    def hundred_stages():
        tracer.begin("read")
        for _ in range(100):
            host("fine_stack", 100.0)
        tracer.end()

    benchmark(hundred_stages)


def test_pipette_fine_read_miss(benchmark):
    """One 128 B Pipette read of a page no earlier read touched."""
    system = build_system("pipette", digest_config(transfer_data=False))
    size = 192 * MIB
    system.create_file("/bench.bin", size)
    fd = system.open("/bench.bin", O_RDWR | O_FINE_GRAINED)
    # A stride just over one page: every read is a new offset on a new page.
    offsets = (index * 4224 % (size - 4096) for index in itertools.count())

    def read_one():
        system.read(fd, next(offsets), 128)

    benchmark(read_one)


def test_block_read_miss(benchmark):
    """One 8 KiB Block I/O read of pages not in the page cache."""
    system = build_system("block-io", digest_config(transfer_data=False))
    size = 192 * MIB
    system.create_file("/bench.bin", size)
    fd = system.open("/bench.bin", O_RDWR)
    # A 64 KiB stride clears the read-ahead window, and the 1 MiB page
    # cache has evicted a page long before the offsets wrap round.
    offsets = (index * 64 * KIB % size for index in itertools.count())

    def read_one():
        system.read(fd, next(offsets), 8 * KIB)

    benchmark(read_one)


def test_ring_replicas(benchmark):
    ring = HashRing(("s0", "s1", "s2", "s3"), vnodes=64, replication=2)
    benchmark(ring.replicas, "/data/file3@123456")


def _multi_queue() -> MultiQueueNvme:
    mq = MultiQueueNvme("wrr")
    for index, tenant in enumerate(("a", "b", "c", "d")):
        mq.add_queue(tenant, weight=index + 1)
    return mq


def test_mq_fetch_idle(benchmark):
    benchmark(_multi_queue().fetch)


def test_mq_fetch_busy(benchmark):
    """One submit plus the fetch that takes it back out."""
    mq = _multi_queue()
    submit, fetch = mq.submit, mq.fetch

    def submit_and_fetch():
        submit("c", 1)
        return fetch()

    benchmark(submit_and_fetch)

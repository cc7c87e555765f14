"""The stage-trace invariants, checked for every registered system.

One record, several derived views — so for any workload:

1. each read's recorded latency equals its trace's critical-path sum
   (the LatencyRecorder is fed from the trace, so totals must match);
2. folding the charged stages of *all* traces (finished requests,
   detached background traces and the ambient trace) reproduces the
   ResourceModel busy totals exactly — for the device systems and for
   a served multi-tenant run, whether the sanitizer is on or off;
3. each read and write hands back its trace's queueing demand as
   ``last_demand``, and the system keeps no per-request demand;
4. the anatomy view sums back to the mean latency.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.config import KIB, MIB
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.serve.server import ServeConfig, StorageServer, TenantSpec
from repro.sim.trace import HOST, NAND, PCIE, Tracer
from repro.system import available_systems, build_system
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace
from repro.workloads.ycsb import YcsbConfig, ycsb_trace

from ..conftest import small_sim_config

FILE = "/data/invariant.bin"
FILE_BYTES = 512 * 1024


def _mixed_workload(system, after_op) -> None:
    """Reads of many sizes (fine and block paths), writes, fsync.

    ``after_op`` runs after every read and write.
    """
    system.create_file(FILE, FILE_BYTES)
    fd = system.open(FILE, O_RDWR | O_FINE_GRAINED)

    def read(offset: int, size: int) -> None:
        system.read(fd, offset, size)
        after_op()

    def write(offset: int, data: bytes) -> None:
        system.write(fd, offset, data)
        after_op()

    offset = 0
    for size in (8, 64, 200, 1024, 4096, 12_288):
        read(offset, size)
        read(offset, size)  # repeat: exercise cache hits
        offset += 16_384
    write(100, b"\xab" * 300)  # partial page: RMW
    write(16_384, b"\xcd" * 4096)  # full page overwrite
    read(100, 300)  # read-your-write
    system.fsync(fd)
    read(40_000, 128)


@pytest.fixture
def recorded(monkeypatch):
    """Every root and detached trace, in the order they open.

    ``Tracer.begin`` opens only roots and ``Tracer.detached`` only
    background traces; nothing in the system keeps either.
    """
    roots: list = []
    detached_traces: list = []
    begin = Tracer.begin
    detached = Tracer.detached

    def collecting_begin(tracer, trace_name):
        root = begin(tracer, trace_name)
        roots.append(root)
        return root

    @contextmanager
    def collecting_detached(tracer, trace_name):
        with detached(tracer, trace_name) as trace:
            detached_traces.append(trace)
            yield trace

    monkeypatch.setattr(Tracer, "begin", collecting_begin)
    monkeypatch.setattr(Tracer, "detached", collecting_detached)
    return roots, detached_traces


def assert_ledger_is_fold(traces, resources) -> None:
    """The ledger's busy totals equal the folded charged stages of ``traces``."""
    host = pcie = 0.0
    per_channel = [0.0] * resources.channels
    for trace in traces:
        for stage in trace.stages:
            if not stage.charged:
                continue
            assert stage.resource != NAND
            if stage.resource == HOST:
                host += stage.ns
            elif stage.resource == PCIE:
                pcie += stage.ns
            else:
                per_channel[stage.resource] += stage.ns
    assert host == pytest.approx(resources.host_busy_ns, rel=1e-12)
    assert pcie == pytest.approx(resources.pcie_busy_ns, rel=1e-12)
    for index, busy in enumerate(resources.channel_busy_ns):
        assert per_channel[index] == pytest.approx(busy, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("name", available_systems())
def test_stage_trace_invariants(name, recorded):
    roots, detached_traces = recorded
    system = build_system(name, small_sim_config())

    # (3) One demand per read and write, handed over, not kept.
    def check_demand() -> None:
        assert system.last_demand == roots[-1].demand()

    _mixed_workload(system, check_demand)
    assert system.demands == []

    reads = [trace for trace in roots if trace.name == "read"]
    assert len(reads) == system.reads

    # (1) QD-1 latency is the trace's critical-path sum, per request.
    assert sum(trace.latency_ns() for trace in reads) == pytest.approx(
        system.latency.total_ns, rel=1e-12
    )

    # (2) The ledger is a pure fold of the recorded stages.
    assert_ledger_is_fold(
        roots + detached_traces + [system.tracer.ambient], system.device.resources
    )

    # (4) The anatomy view sums back to the same mean.
    breakdown = system.stage_breakdown()
    assert sum(breakdown.values()) == pytest.approx(
        system.latency.mean_ns(), rel=1e-12
    )


@pytest.mark.parametrize("name", ["pipette", "block-io"])
def test_served_ledger_is_a_fold_of_the_traces(name, recorded):
    """(2) on the serve path: two tenants, reads and read-modify-writes.

    A small page cache makes block-io's dirty pages write back in
    detached traces mid-run.
    """
    roots, detached_traces = recorded
    base = small_sim_config()
    sim_config = base.scaled(
        cache=replace(base.cache, shared_memory_bytes=256 * KIB, fgrc_bytes=128 * KIB)
    )
    reads = synthetic_trace(SyntheticConfig(requests=60, file_size=1 * MIB, seed=5))
    updates = ycsb_trace(YcsbConfig(workload="A", records=1_024, operations=120, seed=6))
    config = ServeConfig(
        tenants=(
            TenantSpec("reads", reads, max_ops=60),
            TenantSpec("updates", updates, max_ops=120),
        ),
        system=name,
    )
    server = StorageServer(config, sim_config=sim_config)
    server.run()
    system = server.system
    assert system.reads > 0 and system.writes > 0
    if name == "block-io":
        assert detached_traces
    assert_ledger_is_fold(
        roots + detached_traces + [system.tracer.ambient], system.device.resources
    )

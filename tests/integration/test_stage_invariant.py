"""The stage-trace invariants, checked for every registered system.

One record, several derived views — so for any workload:

1. each read's recorded latency equals its trace's critical-path sum
   (the LatencyRecorder is fed from the trace, so totals must match);
2. folding the charged stages of *all* traces (finished requests plus
   the ambient trace) reproduces the ResourceModel busy totals exactly;
3. each read and write hands back its trace's queueing demand as
   ``last_demand``, and the system keeps no per-request demand;
4. the anatomy view sums back to the mean latency.
"""

from __future__ import annotations

import pytest

from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.sim.trace import HOST, PCIE, Tracer, fold_charges, parse_channel
from repro.system import available_systems, build_system

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


@pytest.mark.parametrize("name", available_systems())
def test_stage_trace_invariants(name, monkeypatch):
    roots = []
    begin = Tracer.begin

    def collecting_begin(tracer, trace_name, **meta):
        root = begin(tracer, trace_name, **meta)
        roots.append(root)
        return root

    monkeypatch.setattr(Tracer, "begin", collecting_begin)
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
    resources = system.device.resources
    totals = fold_charges(roots + [system.tracer.ambient])
    per_channel = [0.0] * resources.channels
    for resource, ns in totals.items():
        index = parse_channel(resource)
        if index is not None:
            per_channel[index] += ns
    assert totals.get(HOST, 0.0) == pytest.approx(resources.host_busy_ns, rel=1e-12)
    assert totals.get(PCIE, 0.0) == pytest.approx(resources.pcie_busy_ns, rel=1e-12)
    for index, busy in enumerate(resources.channel_busy_ns):
        assert per_channel[index] == pytest.approx(busy, rel=1e-12, abs=1e-9)

    # (4) The anatomy view sums back to the same mean.
    breakdown = system.stage_breakdown()
    assert sum(breakdown.values()) == pytest.approx(
        system.latency.mean_ns(), rel=1e-12
    )

"""Trace execution harness: drive one trace through one or all systems."""

from __future__ import annotations

from repro.analysis.metrics import SYSTEM_ORDER, WorkloadComparison
from repro.config import SimConfig
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.system import StorageSystem, SystemResult, build_system
from repro.workloads.trace import ReadOp, Trace


def run_trace_system(
    system_name: str,
    trace: Trace,
    config: SimConfig,
    *,
    fine_grained: bool = True,
) -> StorageSystem:
    """Run one trace against a freshly built system; returns the system.

    Use this instead of :func:`run_trace_on` when the caller needs the
    live system afterwards — e.g. the per-read queueing demands, which
    this harness collects into ``system.demands`` (the system itself
    keeps none) and the qd-sweep experiment replays through the
    event-level simulator.

    Every file is opened with ``O_FINE_GRAINED`` (unless disabled) —
    systems that do not understand the flag simply ignore it, exactly
    like the paper's baselines.
    """
    system = build_system(system_name, config)
    flags = O_RDWR | (O_FINE_GRAINED if fine_grained else 0)
    fds: dict[str, int] = {}
    for spec in trace.files:
        system.create_file(spec.path, spec.size)
        fds[spec.path] = system.open(spec.path, flags)
    for op in trace.ops():
        demand = system.apply(op, fds[op.path])
        if isinstance(op, ReadOp):
            system.demands.append(demand)
    return system


def run_trace_on(
    system_name: str,
    trace: Trace,
    config: SimConfig,
    *,
    fine_grained: bool = True,
) -> SystemResult:
    """Run one trace against a freshly built system; returns its result."""
    return run_trace_system(
        system_name, trace, config, fine_grained=fine_grained
    ).result()


def run_comparison(
    trace: Trace,
    config: SimConfig,
    *,
    systems: list[str] | None = None,
    workload_label: str | None = None,
) -> WorkloadComparison:
    """Run the same trace on several systems (fresh device each)."""
    chosen = systems or SYSTEM_ORDER
    results = {name: run_trace_on(name, trace, config) for name in chosen}
    return WorkloadComparison(
        workload=workload_label or trace.name,
        results=results,
    )


__all__ = ["run_comparison", "run_trace_on", "run_trace_system"]

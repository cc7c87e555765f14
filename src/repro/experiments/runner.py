"""Trace execution harness: drive one trace through one or all systems.

Also the one order-independence check the event-loop experiments run
under ``--perturb``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.metrics import SYSTEM_ORDER, WorkloadComparison
from repro.analysis.report import text_table
from repro.config import SimConfig
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.sim.perturb import perturbed
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


def order_independence(
    key: str,
    configs: dict[str, Any],
    run: Callable[[Any, int | None], Any],
    seeds: tuple[int, ...],
) -> tuple[str, dict[str, dict]]:
    """Tie-break-perturb each config; ``RuntimeError`` on drift.

    ``run(config, tiebreak_seed)`` builds and runs a fresh program;
    :func:`~repro.sim.perturb.perturbed` runs each config unperturbed
    and once per seed in ``seeds``.  A drift raises with the report,
    which names the first result leaf that moved.  Returns the report
    table (one row per ``key`` label) and the raw records.
    """
    rows: list[list[str]] = []
    raw: dict[str, dict] = {}
    for label, config in configs.items():
        report = perturbed(lambda seed: run(config, seed), seeds)
        if not report.identical:
            raise RuntimeError(
                f"result depends on the event tie-break ({key}={label}): {report.render()}"
            )
        rows.append([label, f"{len(report.digests)}", "yes", report.baseline_digest[:16]])
        raw[label] = {
            "baseline_digest": report.baseline_digest,
            "digests": {str(seed): d for seed, d in sorted(report.digests.items())},
            "identical": report.identical,
        }
    table = text_table(
        [key, "seeds", "identical", "baseline sha"],
        rows,
        title="Order independence: tie-break perturbation",
    )
    return table, raw


__all__ = ["order_independence", "run_comparison", "run_trace_on", "run_trace_system"]

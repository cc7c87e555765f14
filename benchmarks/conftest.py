"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one paper artifact (table or figure) at the
``small`` scale by default (override with ``REPRO_BENCH_SCALE``) and
writes its rendered report to ``results/<experiment>.txt`` so the
numbers used in EXPERIMENTS.md are reproducible artifacts.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.experiments.scale import get_scale

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Per-backend serving throughput (virtual requests/sec), filled in by
#: ``benchmarks/test_backend_matrix.py`` and written out as
#: ``results/BENCH_backend_matrix.json`` at the end of the session.
BACKEND_MATRIX_QPS: dict[str, float] = {}

#: Cluster-layer throughput (virtual requests/sec and event counts per
#: replica policy), filled in by
#: ``benchmarks/test_cluster.py`` and written out as
#: ``results/BENCH_cluster.json`` at the end of the session.
CLUSTER_BENCH: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="session")
def scale():
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "small"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_report(results_dir: pathlib.Path, name: str, report: str) -> None:
    (results_dir / f"{name}.txt").write_text(report + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """Write this session's bench snapshots and fold them into the trajectory.

    A session that filled neither :data:`BACKEND_MATRIX_QPS` nor
    :data:`CLUSTER_BENCH` (the hot-path microbenches alone, say) writes
    nothing, so ``results/`` stays as committed.
    """
    if BACKEND_MATRIX_QPS:
        RESULTS_DIR.mkdir(exist_ok=True)
        payload = {"virtual_requests_per_sec": dict(sorted(BACKEND_MATRIX_QPS.items()))}
        (RESULTS_DIR / "BENCH_backend_matrix.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        terminalreporter.section("serving throughput by interconnect backend")
        for backend, qps in sorted(BACKEND_MATRIX_QPS.items()):
            terminalreporter.write_line(f"  {backend:<12} {qps:12.1f} req/s (virtual)")
        terminalreporter.write_line("  -> results/BENCH_backend_matrix.json")

    if CLUSTER_BENCH:
        RESULTS_DIR.mkdir(exist_ok=True)
        payload = {
            policy: dict(sorted(stats.items()))
            for policy, stats in sorted(CLUSTER_BENCH.items())
        }
        (RESULTS_DIR / "BENCH_cluster.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        terminalreporter.section("cluster throughput by replica policy")
        for policy, stats in sorted(CLUSTER_BENCH.items()):
            terminalreporter.write_line(
                f"  {policy:<18} {stats['virtual_qps']:12.1f} req/s (virtual)"
                f"  {stats['events_processed']:12.0f} events"
            )
        terminalreporter.write_line("  -> results/BENCH_cluster.json")

    if not (BACKEND_MATRIX_QPS or CLUSTER_BENCH):
        return

    # Fold every BENCH_*.json snapshot into the per-PR trajectory
    # series, so this session's numbers become a diffable datapoint.
    from benchmarks.trajectory import fold

    entry = fold()
    if entry is not None:
        terminalreporter.write_line(
            f"  -> results/TRAJECTORY.json (label {entry['label']}, "
            f"{len(entry['bench'])} bench areas)"
        )

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
    """Report the simlint engine's cost on the full tree.

    Per-rule walk time over ``src/repro`` (parsing is measured
    separately) so a slower rule shows up in bench output, not just as
    a slower CI lint job.
    """
    import time

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

    from repro.lint.context import ModuleContext
    from repro.lint.engine import iter_python_files
    from repro.lint.rules.base import RULES

    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    if not src.is_dir():
        return

    # Wall-clock here measures the lint engine itself, not simulated
    # behaviour.
    started = time.perf_counter()  # simlint: allow[virtual-time-purity]
    contexts = []
    for path in iter_python_files([src]):
        try:
            contexts.append(ModuleContext.parse(str(path), path.read_text()))
        except SyntaxError:
            continue
    parse_s = time.perf_counter() - started  # simlint: allow[virtual-time-purity]

    rule_times: list[tuple[str, float]] = []
    for rule_id, rule in sorted(RULES.items()):
        began = time.perf_counter()  # simlint: allow[virtual-time-purity]
        for ctx in contexts:
            list(rule.check(ctx))
        rule_times.append((rule_id, time.perf_counter() - began))  # simlint: allow[virtual-time-purity]

    writer = terminalreporter
    writer.section("simlint rule-walk time (src/repro)")
    writer.write_line(
        f"parse: {parse_s * 1000:.1f} ms "
        f"({len(contexts)} modules)"
    )
    for rule_id, elapsed in sorted(rule_times, key=lambda item: -item[1]):
        writer.write_line(f"  {rule_id:<28} {elapsed * 1000:7.1f} ms")
    total = parse_s + sum(elapsed for _, elapsed in rule_times)
    writer.write_line(f"  {'total':<28} {total * 1000:7.1f} ms")

    # The lint datapoint of the perf trajectory (EXPERIMENTS.md):
    # end-to-end files/sec over the whole tree, per-rule breakdown.
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "modules": len(contexts),
        "rules_walked": len(rule_times),
        "parse_ms": round(parse_s * 1000, 3),
        "total_ms": round(total * 1000, 3),
        "files_per_sec": round(len(contexts) / total, 1) if total else None,
        "rule_ms": {
            rule_id: round(elapsed * 1000, 3) for rule_id, elapsed in rule_times
        },
    }
    (RESULTS_DIR / "BENCH_simlint.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    writer.write_line("  -> results/BENCH_simlint.json")

    # Fold every BENCH_*.json snapshot into the per-PR trajectory
    # series, so this session's numbers become a diffable datapoint.
    from benchmarks.trajectory import fold

    entry = fold()
    if entry is not None:
        writer.write_line(
            f"  -> results/TRAJECTORY.json (label {entry['label']}, "
            f"{len(entry['bench'])} bench areas)"
        )

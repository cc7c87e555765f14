"""Runs rounds in fresh subprocesses and turns them into metrics.

Every round is its own ``python -m simbench round`` process with a
fixed ``PYTHONHASHSEED``, started only after the previous one ended, so
each round's ``ru_maxrss`` is its own peak and no two rounds share a
heap or a CPU.  This module imports nothing from ``repro``: it only
spawns rounds and reads their JSON records.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from typing import Any, Callable

from simbench import metrics
from simbench.metrics import OPS_FAILED, ROOT, summary, wall_s
from simbench.sizes import planned_ops

#: Environment switches of ``repro`` that would change what a round measures.
ISOLATED_ENV = ("REPRO_SANITIZE", "REPRO_RACECHECK", "REPRO_SCALE", "REPRO_BENCH_SCALE")
HASH_SEED = "0"
#: Longest a single round may take before it is killed and recorded as failed.
ROUND_TIMEOUT_S = 170.0
#: Untraced rounds per workload in ``python -m simbench run`` (``--smoke``: 1).
#: With 7 values the quartiles are exactly the 2nd and 6th, so one slow
#: round cannot widen the spread ``compare`` judges; with 5 it can.
ROUNDS = 7

RoundRunner = Callable[..., dict[str, Any]]


def source_present() -> bool:
    return (ROOT / "src" / "repro").is_dir()


def _child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in ISOLATED_ENV}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    return env


def _failed_round(
    workload: str, seed: int, smoke: bool, traced: bool, error: str, message: str
) -> dict:
    """A round lost to a crash or timeout: every planned op counts as failed."""
    ops = planned_ops(workload, smoke)
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "traced": traced,
        "error": error,
        "message": message,
        "ops": ops,
        "submitted": ops,
        "completed": 0,
        "shed": 0,
        "failed": ops,
        "ops_failed_frac": 1.0,
        "checks": [f"round failed: {error}"],
    }


def spawn_round(
    workload: str,
    seed: int,
    *,
    smoke: bool = False,
    traced: bool = False,
    spans_path: str | None = None,
    timeout_s: float = ROUND_TIMEOUT_S,
) -> dict[str, Any]:
    """Run one round in a fresh interpreter; a crash becomes a failed record."""
    command = [sys.executable, "-m", "simbench", "round", "--workload", workload]
    command += ["--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if traced:
        command.append("--traced")
    if spans_path:
        command += ["--spans", spans_path]
    try:
        # ``run`` kills the child on timeout and waits for it to end.
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout_s,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return _failed_round(
            workload, seed, smoke, traced, "TimeoutExpired", f"over {timeout_s} s"
        )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return _failed_round(
            workload, seed, smoke, traced, "RoundCrashed", done.stderr.strip()[-400:]
        )
    return json.loads(lines[-1])


# --- turning records into metrics -------------------------------------------
def end_to_end_value(name: str, record: dict[str, Any]) -> float:
    """One end-to-end metric of one successful round."""
    if name == "requests_per_s":
        return record["completed"] / record["run_s"]
    if name == "events_per_s":
        return record["virtual"]["engine.events"] / record["run_s"]
    if name == "setup_s":
        return record["setup_workload_s"] + record["setup_build_s"]
    if name == "peak_rss_mib":
        return record["peak_rss_mib"]
    if name == OPS_FAILED.name:
        return record["ops_failed_frac"]
    return record["virtual"][name]


def _median(values: list[float]) -> float | None:
    return summary(values)["median"] if values else None  # type: ignore[return-value]


def summarize(rounds: list[dict], traced: dict | None) -> dict[str, Any]:
    """Median/quartile metrics of one workload, plus its correctness verdict."""
    end_to_end, per_layer, _ = metrics.load()
    good = [record for record in rounds if record["error"] is None]
    every = rounds + ([traced] if traced is not None else [])
    errors = sorted(
        {f"{r['error']}: {r.get('message', '')}" for r in every if r["error"] is not None}
    )
    checks = sorted({check for record in every for check in record.get("checks", [])})
    virtual = [record["virtual"] for record in every if record["error"] is None]
    if any(values != virtual[0] for values in virtual[1:]):
        checks.append("virtual results differ between rounds (traced included)")

    table: dict[str, dict[str, Any]] = {}
    for metric in end_to_end + (OPS_FAILED,):
        source = rounds if metric is OPS_FAILED else good
        entry: dict[str, Any] = {
            "unit": metric.unit,
            "kind": metric.kind,
            "better": metric.better,
            "bound": metric.bound,
        }
        entry.update(summary([end_to_end_value(metric.name, record) for record in source]))
        if metric.name in ("sim_p50_us", "sim_p999_us") and good:
            entry["samples"] = good[0]["virtual"]["latency_samples"]
            entry["beyond_p999"] = good[0]["virtual"]["beyond_p999"]
        table[metric.name] = entry

    layer_values: dict[str, float | None] = {}
    if traced is not None and traced["error"] is None:
        layer_values.update(traced["per_layer"])
        untraced_run = _median([record["run_s"] for record in good])
        if untraced_run:
            layer_values["tracing.overhead_frac"] = traced["run_s"] / untraced_run - 1.0
    layer_values["setup.workload_s"] = _median([r["setup_workload_s"] for r in good])
    layer_values["setup.build_s"] = _median([r["setup_build_s"] for r in good])
    layers = {
        metric.name: {
            "unit": metric.unit,
            "value": layer_values.get(metric.name),
            "n/a": layer_values.get(metric.name) is None,
        }
        for metric in per_layer
    }
    result: dict[str, Any] = {
        "correct": not errors and not checks,
        "rounds": len(rounds),
        "ops_per_round": max((record["ops"] for record in rounds), default=0),
        "errors": errors,
        "checks": checks,
        "end_to_end": table,
        "per_layer": layers,
    }
    if traced is not None and traced["error"] is None:
        result["layers"] = traced["layers"]
        result["wrapper_cost_ns"] = traced["wrapper_cost_ns"]
    return result


# --- python -m simbench run ----------------------------------------------------
def run_all(
    seed: int,
    *,
    smoke: bool,
    out: pathlib.Path,
    rounds: int = ROUNDS,
    runner: RoundRunner = spawn_round,
    log: Callable[[str], None] = lambda line: print(line, file=sys.stderr),
) -> dict[str, Any]:
    """Every workload: ``rounds`` untraced rounds interleaved, then one traced."""
    _, _, workloads = metrics.load()
    out.parent.mkdir(parents=True, exist_ok=True)
    records: dict[str, list[dict]] = {name: [] for name in workloads}
    traced: dict[str, dict] = {}
    began = wall_s()
    # ABCD ABCD ...: drift on a shared host spreads over every workload.
    for index in range(rounds):
        for name in workloads:
            record = runner(name, seed, smoke=smoke, traced=False)
            records[name].append(record)
            log(f"round {index + 1}/{rounds} {name}: {_brief(record)}")
    trace_files = {}
    for name in workloads:
        trace_files[name] = str(out.with_name(f"{out.stem}.{name}.trace.json"))
        traced[name] = runner(
            name, seed, smoke=smoke, traced=True, spans_path=trace_files[name]
        )
        log(f"traced round {name}: {_brief(traced[name])}")
    report = {
        "seed": seed,
        "smoke": smoke,
        "rounds": rounds,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "wall_s": wall_s() - began,
        "workloads": {},
    }
    for name in workloads:
        summary_ = summarize(records[name], traced[name])
        if traced[name]["error"] is None:
            summary_["trace_file"] = trace_files[name]
        report["workloads"][name] = summary_
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _brief(record: dict[str, Any]) -> str:
    if record["error"] is not None:
        return f"FAILED {record['error']}"
    return f"{record['completed']} ops in {record['run_s']:.2f} s"


def _fmt(value: float | None) -> str:
    if value is None:
        return "n/a"
    if value == 0 or 1e-3 <= abs(value) < 1e7:
        return f"{value:.6g}"
    return f"{value:.4e}"


def render(report: dict[str, Any]) -> str:
    """Every metric of every workload, by name, with its unit."""
    lines = []
    for name, result in report["workloads"].items():
        verdict = "correct" if result["correct"] else "INCORRECT"
        lines.append(
            f"== {name}: {verdict}, {result['rounds']} rounds of "
            f"{result['ops_per_round']} ops, seed {report['seed']}"
        )
        for problem in result["errors"] + result["checks"]:
            lines.append(f"   ! {problem}")
        lines.append(f"   {'metric':<32}{'unit':<15}{'kind':<9}{'median':>13}  [q1 .. q3]")
        for metric, entry in result["end_to_end"].items():
            spread = f"[{_fmt(entry['q1'])} .. {_fmt(entry['q3'])}]"
            extra = ""
            if "samples" in entry:
                extra = (
                    f"  ({entry['samples']:.0f} samples, "
                    f"{entry['beyond_p999']:.0f} beyond p99.9)"
                )
            lines.append(
                f"   {metric:<32}{entry['unit']:<15}{entry['kind']:<9}"
                f"{_fmt(entry['median']):>13}  {spread}{extra}"
            )
        lines.append("   per layer (traced round):")
        for metric, entry in result["per_layer"].items():
            lines.append(f"   {metric:<32}{entry['unit']:<15}{_fmt(entry['value']):>22}")
        lines.append("")
    return "\n".join(lines)


# --- simbench/run.py: one workload, as BENCHMARK.json runs it --------------------
#: Fewest rounds a measurement reports a median over.
MIN_ROUNDS = 3
#: No new round starts once this many seconds have passed.
DEADLINE_S = 120.0


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    runner: RoundRunner = spawn_round,
) -> dict[str, Any]:
    """The contract's result line for one workload."""
    end_to_end, per_layer, _ = metrics.load()
    rounds: list[dict] = []
    traced = None
    if trace:
        # The untraced round gives ``tracing.overhead_frac`` its baseline.
        rounds.append(runner(workload, seed))
        traced = runner(workload, seed, traced=True, spans_path=str(_trace_path(workload)))
    else:
        began = wall_s()
        longest = 0.0
        while len(rounds) < MIN_ROUNDS or wall_s() - began < seconds:
            started = wall_s()
            if started - began + longest > DEADLINE_S:
                break
            rounds.append(runner(workload, seed))
            longest = max(longest, wall_s() - started)
    result = summarize(rounds, traced)
    if trace:
        chosen = {m.name: (m, result["per_layer"][m.name]["value"]) for m in per_layer}
    else:
        chosen = {m.name: (m, result["end_to_end"][m.name]["median"]) for m in end_to_end}
    every = rounds + ([traced] if traced is not None else [])
    return {
        "correct": result["correct"],
        "attempted": max(1, sum(record["ops"] for record in every)),
        "failed": sum(record["failed"] for record in every),
        "metrics": {
            name: {"value": _or_zero(value), "unit": metric.unit}
            for name, (metric, value) in chosen.items()
        },
    }


def _or_zero(value: float | None) -> float:
    """The contract wants a number; an undefined (``n/a``) value reads 0."""
    return 0.0 if value is None else value


def _trace_path(workload: str) -> pathlib.Path:
    directory = ROOT / ".simbench"
    directory.mkdir(exist_ok=True)
    return directory / f"{workload}.trace.json"

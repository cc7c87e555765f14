"""One round of one workload, in the current process.

The harness runs every round in a fresh subprocess (``python -m
simbench round ...``), which prints :func:`run_round`'s record as one
JSON line.  A round times set-up and the run apart, reads the virtual
results back, checks them, and in the traced variant also reports the
per-layer metrics.  A round that raises is a record too: every
materialized op counts as failed and the exception type is kept.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
from typing import Any

from repro.config import SimConfig
from repro.experiments.scale import get_scale
from repro.system import available_systems

from simbench.metrics import ratio, wall_s
from simbench.sizes import planned_ops
from simbench.tracing import SpanRecorder, census
from simbench.workloads import (
    MIN_BEYOND_P999,
    WORKLOADS,
    Inputs,
    Outcome,
    Workload,
    virtual_metrics,
)

#: Every round uses the ``small`` preset's device and host memory sizes.
SCALE = "small"
#: Set-ups per round: the first one runs, the others are discarded.  The
#: round reports the median set-up time, so one slow moment of the host
#: during a set-up of tens of milliseconds does not decide ``setup_s``.
SETUPS = 3


def _per_call_us(recorder: SpanRecorder, label: str) -> float | None:
    calls = recorder.calls(label)
    return recorder.self_s(label) / calls * 1e6 if calls else None


def _stage_count(trace) -> int:
    return len(trace.stages) + sum(_stage_count(child) for child in trace.children)


def layer_metrics(recorder: SpanRecorder, virtual: dict[str, Any]) -> dict[str, float | None]:
    """Per-layer metrics of the traced round (``None`` = not defined here)."""
    layers = recorder.layers()
    events = virtual["engine.events"]
    settle_calls, settle_useful, settle_self = recorder.settle_totals()
    requests = len(recorder.roots)
    walks = sum(
        recorder.calls(f"repro.sim.trace.StageTrace.{method}")
        for method in ("demand", "latency_by_name", "latency_ns")
    )
    read = "repro.system.StorageSystem.read"
    write = "repro.system.StorageSystem.write"
    fetch = "repro.serve.nvme_mq.MultiQueueNvme.fetch"
    replicas = "repro.cluster.ring.HashRing.replicas"
    fetches = recorder.calls(fetch)
    hedges = virtual["router.hedges_issued"]

    def wait_us(kind: str) -> float | None:
        acquires, wait_ns = recorder.waits.get(kind, (0, 0.0))
        return wait_ns / acquires / 1000.0 if acquires else None

    return {
        "engine.events": events,
        "engine.self_us_per_event": ratio(layers["engine"]["self_s"] * 1e6, events),
        "engine.fifo_acquires": float(sum(acquires for acquires, _ in recorder.waits.values())),
        "engine.settle_calls_per_event": ratio(settle_calls, events),
        "engine.settle_useful_ratio": ratio(settle_useful, settle_calls),
        "engine.settle_self_s": settle_self,
        "trace.stages_per_request": ratio(
            sum(_stage_count(root) for root in recorder.roots), requests
        ),
        "trace.walks_per_request": ratio(walks, requests),
        "trace.demand_self_us": _per_call_us(recorder, "repro.sim.trace.StageTrace.demand"),
        "trace.latency_by_name_self_us": _per_call_us(
            recorder, "repro.sim.trace.StageTrace.latency_by_name"
        ),
        "storage.read_calls": float(recorder.calls(read)),
        "storage.read_self_us": _per_call_us(recorder, read),
        "storage.write_calls": float(recorder.calls(write)),
        "storage.write_self_us": _per_call_us(recorder, write),
        "storage.self_share": layers["storage"]["share"],
        "storage.retained_demands": virtual["storage.retained_demands"],
        "storage.fgrc_hit_ratio": virtual["storage.fgrc_hit_ratio"],
        "storage.page_cache_hit_ratio": virtual["storage.page_cache_hit_ratio"],
        "storage.read_amplification": virtual["storage.read_amplification"],
        "stage.host.util": virtual["stage.host.util"],
        "stage.channel.util_max": virtual["stage.channel.util_max"],
        "stage.pcie.util": virtual["stage.pcie.util"],
        "stage.host.wait_us": wait_us("host"),
        "stage.channel.wait_us": wait_us("channel"),
        "stage.pcie.wait_us": wait_us("pcie"),
        "mq.fetch_calls": float(fetches),
        "mq.fetch_hit_ratio": ratio(recorder.truthy(fetch), fetches),
        "mq.fetch_self_us": _per_call_us(recorder, fetch),
        "server.self_share": layers["server"]["share"],
        "router.self_share": layers["router"]["share"],
        "router.hedges_issued": hedges,
        "router.hedge_win_ratio": ratio(virtual["router.hedges_won"], hedges),
        "router.hedges_wasted": virtual["router.hedges_wasted"],
        "router.hedges_cancelled": virtual["router.hedges_cancelled"],
        "ring.lookups": float(recorder.calls(replicas)),
        "ring.lookup_self_us": _per_call_us(recorder, replicas),
    }


def _checks(outcome: Outcome, virtual: dict[str, Any], smoke: bool) -> list[str]:
    checks = list(outcome.checks)
    if outcome.submitted != outcome.ops:
        checks.append(f"submitted {outcome.submitted} != materialized {outcome.ops}")
    if outcome.failed != 0:
        checks.append(f"{outcome.failed} operations neither completed nor shed")
    if not smoke and virtual["beyond_p999"] < MIN_BEYOND_P999:
        checks.append(f"only {virtual['beyond_p999']:.0f} samples beyond p99.9")
    return checks


def _set_up(
    spec: Workload,
    seed: int,
    smoke: bool,
    sim_config: SimConfig,
    times: list[tuple[float, float]],
) -> tuple[Inputs, object]:
    """Generate the inputs and build the program; append both times."""
    began = wall_s()
    inputs = spec.inputs(seed, smoke)
    built = wall_s()
    program = spec.build(inputs.data, sim_config)
    times.append((built - began, wall_s() - built))
    return inputs, program


def run_round(
    workload: str,
    seed: int,
    *,
    smoke: bool = False,
    traced: bool = False,
    spans_path: str | None = None,
    sim_overrides: dict[str, object] | None = None,
) -> dict[str, Any]:
    """Set up, run and check one round; never raises for a failing program.

    After a successful run the round sets up ``SETUPS - 1`` more times
    and reports the median set-up time.  Those programs are discarded
    unrun, and they are built only after the measured program is gone
    and the peak RSS has been read.  ``sim_overrides`` replaces fields
    of the ``SimConfig`` (tests use it to inject device faults).
    """
    spec = WORKLOADS[workload]
    available_systems()  # imports every system module before the clock
    sim_config = get_scale(SCALE).sim_config().scaled(**(sim_overrides or {}))
    setups: list[tuple[float, float]] = []
    record = _measured_round(spec, seed, smoke, traced, spans_path, sim_config, setups)
    if record["error"] is None:
        for _ in range(SETUPS - 1):
            gc.collect()
            _set_up(spec, seed, smoke, sim_config, setups)
        record["setup_workload_s"] = statistics.median(inputs_s for inputs_s, _ in setups)
        record["setup_build_s"] = statistics.median(build_s for _, build_s in setups)
    return record


def _measured_round(
    spec: Workload,
    seed: int,
    smoke: bool,
    traced: bool,
    spans_path: str | None,
    sim_config: SimConfig,
    setups: list[tuple[float, float]],
) -> dict[str, Any]:
    """Set up once, run and check; the set-up times go into ``setups``."""
    record: dict[str, Any] = {
        "workload": spec.name,
        "seed": seed,
        "smoke": smoke,
        "traced": traced,
        "error": None,
        # Replaced by the materialized count once set-up has built the inputs.
        "ops": planned_ops(spec.name, smoke),
    }
    recorder = SpanRecorder() if traced else None
    if recorder is not None:
        recorder.calibrate()  # outside the census: calibration builds loops
    with census() as found:
        try:
            with recorder.installed() if recorder else contextlib.nullcontext():
                inputs, program = _set_up(spec, seed, smoke, sim_config, setups)
                record["ops"] = inputs.ops
                gc.collect()
                start = wall_s()
                result = recorder.root(program.run) if recorder else program.run()
                end = wall_s()
        except Exception as exc:  # the round reports the failure instead
            record.update(
                error=type(exc).__name__,
                message=str(exc)[:300],
                submitted=record["ops"],
                completed=0,
                shed=0,
                failed=record["ops"],
                ops_failed_frac=1.0,
                checks=[f"raised {type(exc).__name__}"],
            )
            return record
    outcome = spec.outcome(inputs.data, program, result)
    virtual = virtual_metrics(outcome, found)
    record.update(
        ops=outcome.ops,
        submitted=outcome.submitted,
        completed=outcome.completed,
        shed=outcome.shed,
        failed=outcome.failed,
        ops_failed_frac=outcome.failed / outcome.submitted if outcome.submitted else 1.0,
        checks=_checks(outcome, virtual, smoke),
        run_s=end - start,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        virtual=virtual,
    )
    if recorder is not None:
        recorder.calibrate()  # again, so one slow moment cannot inflate the costs
        record["per_layer"] = layer_metrics(recorder, virtual)
        record["layers"] = recorder.layers()
        record["wrapper_cost_ns"] = recorder.wrapper_costs_ns()
        if spans_path:
            recorder.write_chrome_trace(spans_path, spec.name)
    return record

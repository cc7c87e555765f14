"""Self-tests of the benchmark harness, on ``--smoke`` sizes.

Run from the repository root: ``PYTHONPATH=src python -m pytest simbench -q``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

from simbench import compare, harness, metrics
from simbench.metrics import OPS_FAILED, ROOT, Metric
from simbench.rounds import run_round
from simbench.sizes import planned_ops
from simbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics that are undefined (``n/a``) on each workload: ratios
#: and per-call times whose denominator is zero there.
NOT_APPLICABLE = {
    "serve-small-reads": {
        "storage.write_self_us",
        "router.hedge_win_ratio",
        "ring.lookup_self_us",
    },
    "serve-kv-update": {"router.hedge_win_ratio", "ring.lookup_self_us"},
    "cluster-hedged-stall": set(),
    "queueing-replay": {
        "trace.stages_per_request",
        "trace.walks_per_request",
        "trace.demand_self_us",
        "trace.latency_by_name_self_us",
        "storage.read_self_us",
        "storage.write_self_us",
        "storage.fgrc_hit_ratio",
        "storage.page_cache_hit_ratio",
        "storage.read_amplification",
        "mq.fetch_hit_ratio",
        "mq.fetch_self_us",
        "router.hedge_win_ratio",
        "ring.lookup_self_us",
    },
}

FAULTY = {"read_fault_rate": 0.6, "max_retries": 1}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``run --smoke`` over every workload, plus the raw round records."""
    records: list[dict] = []

    def recording_runner(*args, **kwargs):
        record = harness.spawn_round(*args, **kwargs)
        records.append(record)
        return record

    out = tmp_path_factory.mktemp("simbench") / "smoke.json"
    report = harness.run_all(
        1, smoke=True, rounds=1, out=out, runner=recording_runner, log=lambda _line: None
    )
    return report, records, out


def _faulty_config() -> dict[str, object]:
    from repro.ssd.faults import FaultModel

    return {"faults": FaultModel(**FAULTY)}


def test_benchmark_json_follows_the_contract():
    spec = json.loads(metrics.BENCHMARK_FILE.read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["simbench"]
    assert all(not part.startswith("/") and ".." not in part for part in spec["command"])
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    end_to_end, per_layer, _ = metrics.load()
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    every = [m.name for m in end_to_end + per_layer] + names
    assert len(every) == len(set(every))
    for metric in end_to_end + per_layer:
        assert NAME.match(metric.name) and UNIT.match(metric.unit), metric
        assert metric.better in ("higher", "lower")
    bounds = {m.name: m.bound for m in end_to_end}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_metric_is_emitted_with_its_unit(smoke):
    report, _, _ = smoke
    end_to_end, per_layer, names = metrics.load()
    assert list(report["workloads"]) == list(names)
    for name, result in report["workloads"].items():
        assert result["correct"], (name, result["errors"], result["checks"])
        for metric in end_to_end + (OPS_FAILED,):
            entry = result["end_to_end"][metric.name]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["median"], float), (name, metric.name)
        for metric in per_layer:
            entry = result["per_layer"][metric.name]
            assert entry["unit"] == metric.unit
            assert entry["n/a"] == (metric.name in NOT_APPLICABLE[name]), (name, metric.name)
            assert entry["n/a"] == (entry["value"] is None)


def test_layer_shape(smoke):
    report, _, _ = smoke
    layers = {name: result["per_layer"] for name, result in report["workloads"].items()}
    assert layers["cluster-hedged-stall"]["engine.settle_calls_per_event"]["value"] >= 50
    assert layers["cluster-hedged-stall"]["ring.lookups"]["value"] > 0
    assert layers["queueing-replay"]["storage.read_calls"]["value"] == 0
    assert layers["serve-kv-update"]["storage.write_calls"]["value"] > 0


def test_traced_virtual_results_equal_untraced(smoke):
    _, records, _ = smoke
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    for name, rounds in by_workload.items():
        traced = [r["virtual"] for r in rounds if r["traced"]]
        untraced = [r["virtual"] for r in rounds if not r["traced"]]
        assert traced and untraced and traced[0] == untraced[0], name


def test_conservation(smoke):
    _, records, _ = smoke
    for record in records:
        assert record["ops"] == planned_ops(record["workload"], True) > 0
        assert record["submitted"] == record["ops"], record["workload"]
        total = record["completed"] + record["shed"] + record["failed"]
        assert total == record["submitted"], record["workload"]


def test_chrome_trace_has_parent_links(smoke):
    report, _, _ = smoke
    trace_file = report["workloads"]["cluster-hedged-stall"]["trace_file"]
    events = json.loads(open(trace_file, encoding="utf-8").read())["traceEvents"]
    ids = {event["args"]["id"] for event in events}
    assert 0 < len(events) <= 2_000
    assert any(event["args"]["parent"] in ids for event in events)
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


def test_a_raising_round_is_recorded_and_the_harness_goes_on(smoke, tmp_path):
    failing = run_round("serve-small-reads", 1, smoke=True, sim_overrides=_faulty_config())
    assert failing["error"] == "NandReadError"
    assert failing["ops_failed_frac"] == 1.0
    assert failing["failed"] == failing["ops"] == failing["submitted"] > 0

    _, records, _ = smoke

    def runner(workload, seed, *, smoke, traced, spans_path=None):
        if workload == "serve-small-reads":
            return dict(failing, traced=traced)
        return next(r for r in records if r["workload"] == workload and r["traced"] == traced)

    report = harness.run_all(
        1, smoke=True, rounds=1, out=tmp_path / "r.json", runner=runner, log=lambda _line: None
    )
    broken = report["workloads"]["serve-small-reads"]
    assert not broken["correct"]
    assert any("NandReadError" in error for error in broken["errors"])
    assert broken["end_to_end"]["ops_failed_frac"]["median"] == 1.0
    for name in ("serve-kv-update", "cluster-hedged-stall", "queueing-replay"):
        assert report["workloads"][name]["correct"], name


def test_a_round_that_times_out_counts_as_failed_ops():
    def timing_out(workload, seed, **options):
        return harness.spawn_round(workload, seed, **options, smoke=True, timeout_s=0.01)

    result = harness.measure("queueing-replay", 1, 0.0, False, runner=timing_out)
    assert not result["correct"]
    assert result["attempted"] == harness.MIN_ROUNDS * planned_ops("queueing-replay", True)
    assert result["failed"] == result["attempted"]


def test_seed_changes_the_inputs():
    first = run_round("queueing-replay", 1, smoke=True)
    second = run_round("queueing-replay", 2, smoke=True)
    again = run_round("queueing-replay", 1, smoke=True)
    assert not first["checks"] and not second["checks"]
    assert first["virtual"]["sim_p999_us"] != second["virtual"]["sim_p999_us"]
    assert first["virtual"] == again["virtual"]


def _entry(values: list[float]) -> dict:
    return metrics.summary(values)


def test_compare_verdicts():
    wall = Metric("requests_per_s", "req/s", "higher", 0.1)
    virtual = Metric("sim_p999_us", "virtual-us", "lower", 0.2, metrics.VIRTUAL)
    base = _entry([100.0, 101.0, 99.0, 100.0, 100.5])
    assert compare.verdict(wall, base, _entry([100.0, 99.5, 100.2, 101.0, 99.0])) == "within"
    assert compare.verdict(wall, base, _entry([80.0, 81.0, 79.0, 80.0, 80.5])) == "worse"
    assert compare.verdict(wall, base, _entry([130.0, 131.0, 129.0, 130.0, 130.5])) == "better"
    noisy = _entry([60.0, 140.0, 100.0, 70.0, 130.0])
    assert compare.verdict(wall, base, noisy) == "unresolved"
    assert compare.verdict(virtual, _entry([5.0]), _entry([5.0])) == "within"
    assert compare.verdict(virtual, _entry([5.0]), _entry([4.0])) == "MOVED"
    # The same virtual result over a different number of rounds has not moved.
    assert compare.verdict(virtual, _entry([0.1] * 7), _entry([0.1] * 5)) == "within"
    assert compare.verdict(OPS_FAILED, _entry([0.0]), _entry([0.01])) == "worse"
    # One failed round of five is worse, although the median is still 0.
    assert compare.verdict(OPS_FAILED, _entry([0.0] * 5), _entry([0.0] * 4 + [1.0])) == "worse"


def test_compare_of_a_run_with_itself_passes(smoke, capsys):
    _, _, out = smoke
    assert compare.main(str(out), str(out)) == 0
    assert "MOVED" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "change",
    [
        lambda report: report.update(seed=report["seed"] + 1),
        lambda report: report.update(rounds=report["rounds"] + 1),
        lambda report: report.update(smoke=not report["smoke"]),
        lambda report: report["workloads"].pop("queueing-replay"),
        lambda report: report["workloads"]["serve-kv-update"].update(correct=False),
    ],
    ids=["seed", "rounds", "smoke", "missing-workload", "incorrect"],
)
def test_compare_fails_on_runs_that_cannot_be_judged(smoke, change):
    report, _, _ = smoke
    head = copy.deepcopy(report)
    change(head)
    lines, failing = compare.compare(report, head)
    assert failing
    assert any(line.endswith(("INCOMPARABLE", "INCORRECT")) for line in lines)
    # A failing base is caught the same way.
    assert compare.compare(head, report)[1]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "simbench", tmp_path / "simbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "queueing-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

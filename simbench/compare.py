"""Judge a run against a base run, metric by metric, workload by workload.

For each workload and end-to-end metric the verdict is one of:

``better`` / ``worse``
    the median moved by more than the metric's bound in that direction;
``within``
    the median moved by at most the bound;
``unresolved``
    the run-to-run spread (quartile distance over median, either side)
    is wider than the bound, so a move of that size cannot be told from
    noise -- unless every head round beats every base round, which is
    ``better``;
``MOVED``
    a virtual metric changed at all, in either direction: simulated
    results must repeat bit for bit, so a change to them can never pass
    as a speed-up.

``ops_failed_frac`` is gated exactly on its worst round: any increase is
``worse``.  Two more verdicts judge the runs as a whole:

``INCORRECT``
    a workload failed its correctness checks in either run;
``INCOMPARABLE``
    the runs differ in seed, ``--smoke`` or round count, or a workload
    is missing from one of them.

The exit status is 1 when any verdict is ``worse``, ``MOVED``,
``INCORRECT`` or ``INCOMPARABLE``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from simbench.metrics import COUNT, OPS_FAILED, VIRTUAL, Metric, load

BETTER, WORSE, WITHIN, UNRESOLVED, MOVED = "better", "worse", "within", "unresolved", "MOVED"
INCORRECT, INCOMPARABLE = "INCORRECT", "INCOMPARABLE"
FAILING = (WORSE, MOVED, INCORRECT, INCOMPARABLE)
#: Report fields that must be equal for two runs to be compared.
SETTINGS = ("seed", "smoke", "rounds")


def _spread(entry: dict[str, Any]) -> float:
    median = entry["median"]
    if not median:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(median)


def verdict(metric: Metric, base: dict[str, Any], head: dict[str, Any]) -> str:
    """Verdict of one metric on one workload (see the module docstring)."""
    if not base["values"] or not head["values"]:
        return UNRESOLVED
    if metric.kind == COUNT:
        # The worst round: one failed round must not hide behind the median.
        change = metric.worse_by(max(base["values"]), max(head["values"]))
        return WORSE if change > 0 else (BETTER if change < 0 else WITHIN)
    if metric.kind == VIRTUAL:
        # A correct run gives the same virtual result in every round, so
        # one round stands for all, whatever the round count.
        return MOVED if base["values"][0] != head["values"][0] else WITHIN
    change = metric.worse_by(base["median"], head["median"])
    if max(_spread(base), _spread(head)) > metric.bound:
        every_round_better = all(
            metric.worse_by(b, h) < 0 for b in base["values"] for h in head["values"]
        )
        return BETTER if every_round_better else UNRESOLVED
    if change > metric.bound:
        return WORSE
    if change < -metric.bound:
        return BETTER
    return WITHIN


def _fmt(entry: dict[str, Any]) -> str:
    if entry["median"] is None:
        return "n/a"
    return f"{entry['median']:.6g} [{entry['q1']:.6g} .. {entry['q3']:.6g}]"


def compare(base: dict[str, Any], head: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines, and whether any verdict is failing."""
    end_to_end, _, _ = load()
    lines = [
        f"{'workload':<22}{'metric':<17}{'unit':<15}{'base median [q1 .. q3]':<40}"
        f"{'head median [q1 .. q3]':<40}{'change':>9}  verdict"
    ]
    failing = False
    for key in SETTINGS:
        if base.get(key) != head.get(key):
            lines.append(
                f"{key} differs: base {base.get(key)}, head {head.get(key)}  {INCOMPARABLE}"
            )
            failing = True
    for workload in sorted(set(base["workloads"]) | set(head["workloads"])):
        if workload not in base["workloads"] or workload not in head["workloads"]:
            lines.append(f"{workload:<22}only in one run  {INCOMPARABLE}")
            failing = True
            continue
        sides = [
            side
            for side, report in (("base", base), ("head", head))
            if not report["workloads"][workload]["correct"]
        ]
        if sides:
            lines.append(f"{workload:<22}incorrect in {' and '.join(sides)}  {INCORRECT}")
            failing = True
        before = base["workloads"][workload]["end_to_end"]
        after = head["workloads"][workload]["end_to_end"]
        for metric in end_to_end + (OPS_FAILED,):
            b, h = before[metric.name], after[metric.name]
            result = verdict(metric, b, h)
            failing = failing or result in FAILING
            change = ""
            if b["median"] and h["median"] is not None:
                change = f"{(h['median'] - b['median']) / abs(b['median']):+.1%}"
            lines.append(
                f"{workload:<22}{metric.name:<17}{metric.unit:<15}{_fmt(b):<40}{_fmt(h):<40}"
                f"{change:>9}  {result}"
            )
    return lines, failing


def main(base_path: str, head_path: str) -> int:
    base = json.loads(pathlib.Path(base_path).read_text())
    head = json.loads(pathlib.Path(head_path).read_text())
    lines, failing = compare(base, head)
    print("\n".join(lines))
    return 1 if failing else 0

"""Metric table of the benchmark: names, units, directions and bounds.

``BENCHMARK.json`` at the repository root is the single source of the
metric names, units, directions and regression bounds.  This module
adds what that file has no field for:

- the *kind* of each end-to-end metric: ``wall`` (how fast the
  simulator runs on the host) or ``virtual`` (simulated results, the
  research output).  Virtual metrics are named ``sim_*``; they must
  repeat bit for bit, so ``compare`` flags any move as ``MOVED``;
- ``ops_failed_frac``, which is 0 on every healthy run and therefore
  cannot be a contract metric (those must never be 0).  It is reported
  next to the others and gated exactly (bound 0).
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

WALL = "wall"
VIRTUAL = "virtual"
COUNT = "count"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the base median by which the metric may worsen; ``None``
    #: for per-layer metrics, which carry no bound.
    bound: float | None
    kind: str = WALL

    def worse_by(self, base: float, head: float) -> float:
        """Relative change of ``head`` against ``base``, positive = worse."""
        if base == 0:
            if head == base:
                return 0.0
            worse = head > base if self.better == "lower" else head < base
            return math.inf if worse else -math.inf
        change = (head - base) / abs(base)
        return change if self.better == "lower" else -change


def wall_s() -> float:
    """Host seconds (monotonic): the benchmark measures the simulator itself."""
    return time.perf_counter()  # simlint: allow[virtual-time-purity]


def ratio(numerator: float, denominator: float) -> float | None:
    """``numerator / denominator``, or ``None`` (``n/a``) when undefined."""
    return numerator / denominator if denominator else None


def _kind(name: str) -> str:
    return VIRTUAL if name.startswith("sim_") else WALL


def load() -> tuple[tuple[Metric, ...], tuple[Metric, ...], tuple[str, ...]]:
    """(end-to-end metrics, per-layer metrics, workload names)."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    end_to_end = tuple(
        Metric(m["name"], m["unit"], m["better"], m["bound"], _kind(m["name"]))
        for m in spec["end_to_end"]
    )
    per_layer = tuple(
        Metric(m["name"], m["unit"], m["better"], None) for m in spec["per_layer"]
    )
    workloads = tuple(w["name"] for w in spec["workloads"])
    return end_to_end, per_layer, workloads


#: Failed operations / submitted operations; gated exactly.
OPS_FAILED = Metric("ops_failed_frac", "fraction", "lower", 0.0, COUNT)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: list[float]) -> dict[str, object]:
    """Median and quartiles of one metric's per-round values."""
    if not values:
        return {"values": [], "median": None, "q1": None, "q3": None}
    q1, median, q3 = quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3}

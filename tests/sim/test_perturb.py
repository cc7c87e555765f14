"""Unit tests for the tie-break perturbation report."""

from __future__ import annotations

import math

from repro.sim.perturb import ABSENT, first_drift, perturbed, result_digest


class _Result:
    def __init__(self, tree: dict) -> None:
        self.tree = tree

    def to_dict(self) -> dict:
        return self.tree


def test_first_drift_walks_keys_in_sorted_order():
    baseline = {"z": 1, "a": {"y": [1, 2], "b": 3.0}}
    drifted = {"z": 2, "a": {"y": [1, 5], "b": 3.0}}
    drift = first_drift(7, baseline, drifted)
    assert drift is not None
    assert (drift.seed, drift.path, drift.baseline, drift.drifted) == (7, "a.y.1", 2, 5)


def test_first_drift_reports_absent_leaves():
    drift = first_drift(1, {"a": 1}, {"a": 1, "b": 2})
    assert drift is not None and (drift.path, drift.baseline, drift.drifted) == ("b", ABSENT, 2)
    drift = first_drift(1, {"a": 1, "b": 2}, {"a": 1})
    assert drift is not None and (drift.path, drift.baseline, drift.drifted) == ("b", 2, ABSENT)


def test_first_drift_treats_nan_as_equal_like_the_digest():
    assert first_drift(1, {"a": math.nan}, {"a": math.nan}) is None
    assert result_digest(_Result({"a": math.nan})) == result_digest(_Result({"a": math.nan}))


def test_report_names_the_first_drifted_seed_and_leaf():
    def run(seed):
        return _Result({"mean_ns": 1.0 if seed in (None, 1, 2) else 1.5, "count": 3})

    report = perturbed(run, (1, 2, 3, 4))
    assert report.drifted == (3, 4)
    assert report.first is not None
    assert (report.first.seed, report.first.path) == (3, "mean_ns")
    assert report.render().endswith("seed 3 first moved mean_ns: 1.0 -> 1.5")


def test_identical_report_has_no_drift():
    report = perturbed(lambda seed: _Result({"count": 3}), (1, 2))
    assert report.identical and report.first is None
    assert "first moved" not in report.render()

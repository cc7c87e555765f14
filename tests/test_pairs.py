"""The paired-run summary: canned ``simbench/run.py`` result lines."""

from __future__ import annotations

import json

import pytest

from benchmarks.pairs import parse_result, quartiles, render, summarize

BETTER = {
    "requests_per_s": "higher",
    "setup_s": "lower",
    "sim_qps": "higher",
}


def _line(requests_per_s: float, setup_s: float, sim_qps: float = 1000.5) -> str:
    metrics = {
        "requests_per_s": {"unit": "req/s", "value": requests_per_s},
        "setup_s": {"unit": "s", "value": setup_s},
        "sim_qps": {"unit": "virtual-req/s", "value": sim_qps},
    }
    return json.dumps({"attempted": 10, "correct": True, "metrics": metrics})


def test_parse_result_reads_the_last_line():
    stdout = "round 1 of 3\nround 2 of 3\n" + _line(100.0, 0.5) + "\n\n"
    assert parse_result(stdout) == {"requests_per_s": 100.0, "setup_s": 0.5, "sim_qps": 1000.5}
    with pytest.raises(ValueError):
        parse_result("\n")


def test_quartiles_of_one_and_of_many():
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_counts_wins_in_each_direction_and_compares_gap_with_base_iqr():
    base = [parse_result(_line(rps, 1.0)) for rps in (100.0, 104.0, 96.0, 100.0, 102.0)]
    change = [parse_result(_line(rps, setup)) for rps, setup in (
        (130.0, 0.9), (128.0, 1.1), (99.0, 0.8), (131.0, 0.9), (135.0, 1.0),
    )]
    summaries, mismatches = summarize(list(zip(base, change)), BETTER)
    assert mismatches == []
    by_name = {item.name: item for item in summaries}
    assert set(by_name) == {"requests_per_s", "setup_s"}
    rps = by_name["requests_per_s"]
    assert rps.ratios == pytest.approx((1.3, 128 / 104, 99 / 96, 1.31, 135 / 102))
    assert rps.median_ratio == pytest.approx(1.3)
    assert rps.wins == 5
    assert rps.base_quartiles == (100.0, 100.0, 102.0)
    assert rps.gap == pytest.approx(30.0) and rps.base_iqr == pytest.approx(2.0)
    setup = by_name["setup_s"]
    # Lower is better: 0.9, 0.8, 0.9 beat 1.0; 1.0 ties; 1.1 loses.
    assert setup.wins == 3
    assert setup.gap == pytest.approx(0.1)
    text = render(summaries, 5)
    assert "change better in 5 of 5" in text
    assert "median gap 30 clears the base IQR 2" in text


def test_any_sim_metric_difference_is_a_mismatch():
    base = [parse_result(_line(100.0, 1.0)), parse_result(_line(101.0, 1.0))]
    same = [parse_result(_line(110.0, 1.0)), parse_result(_line(111.0, 1.0))]
    assert summarize(list(zip(base, same)), BETTER)[1] == []
    moved = [parse_result(_line(110.0, 1.0)), parse_result(_line(111.0, 1.0, 1000.5000001))]
    (mismatch,) = summarize(list(zip(base, moved)), BETTER)[1]
    assert mismatch.startswith("sim_qps:")

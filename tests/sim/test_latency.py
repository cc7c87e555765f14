"""Tests for the latency recorder."""

import pytest

from repro.sim.latency import LatencyRecorder, LatencyStats


def test_mean_overall():
    recorder = LatencyRecorder()
    recorder.record(100.0)
    recorder.record(300.0)
    assert recorder.mean_ns() == 200.0
    assert recorder.count == 2
    assert recorder.total_ns == 400.0


def test_stats_min_max():
    recorder = LatencyRecorder()
    for value in (5.0, 50.0, 500.0):
        recorder.record(value)
    stats = recorder.stats()
    assert stats.min_ns == 5.0
    assert stats.max_ns == 500.0
    assert stats.count == 3


def test_empty_stats():
    stats = LatencyRecorder().stats()
    assert stats == LatencyStats.empty()


def test_percentiles_monotone():
    recorder = LatencyRecorder()
    for value in range(1, 1001):
        recorder.record(float(value))
    stats = recorder.stats()
    assert stats.p50_ns <= stats.p99_ns <= stats.max_ns


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        LatencyRecorder().record(-1.0)

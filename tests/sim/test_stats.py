"""Tests for counters, the traffic meter, and the latency histogram."""

import math

import pytest

from repro.sim.stats import HitMissCounter, LatencyHistogram, TrafficMeter


def test_hit_miss_ratio():
    counter = HitMissCounter()
    counter.hit()
    counter.hit()
    counter.miss()
    assert counter.accesses == 3
    assert counter.hit_ratio == pytest.approx(2 / 3)


def test_hit_ratio_empty_is_zero():
    assert HitMissCounter().hit_ratio == 0.0


def test_traffic_meter_directions():
    meter = TrafficMeter()
    meter.device_read(100)
    meter.device_write(40)
    meter.demand(60)
    assert meter.device_to_host_bytes == 100
    assert meter.host_to_device_bytes == 40
    assert meter.read_amplification == pytest.approx(100 / 60)


def test_traffic_meter_write_context_splits_attribution():
    meter = TrafficMeter()
    meter.device_read(100)
    meter.write_context = True
    meter.device_read(4096)
    meter.write_context = False
    meter.device_read(28)
    assert meter.device_to_host_bytes == 128
    assert meter.write_induced_bytes == 4096


def test_traffic_meter_rejects_negative():
    meter = TrafficMeter()
    with pytest.raises(ValueError):
        meter.device_read(-1)
    with pytest.raises(ValueError):
        meter.device_write(-1)
    with pytest.raises(ValueError):
        meter.demand(-1)


def test_traffic_meter_reset():
    meter = TrafficMeter()
    meter.device_read(10)
    meter.write_context = True
    meter.reset()
    assert meter.device_to_host_bytes == 0
    assert not meter.write_context


def test_amplification_without_demand_is_zero():
    meter = TrafficMeter()
    meter.device_read(10)
    assert meter.read_amplification == 0.0


# --- LatencyHistogram -------------------------------------------------


def test_histogram_empty_is_all_zero():
    histogram = LatencyHistogram()
    assert histogram.count == 0
    assert histogram.mean_ns == 0.0
    assert histogram.min_ns == 0.0
    assert histogram.max_ns == 0.0
    assert histogram.p50_ns == 0.0
    assert histogram.p999_ns == 0.0
    assert histogram.percentile(1.0) == 0.0


def test_histogram_single_sample_is_every_percentile():
    histogram = LatencyHistogram()
    histogram.record(123.0)
    assert histogram.count == 1
    assert histogram.mean_ns == 123.0
    for fraction in (0.0, 0.5, 0.95, 0.99, 0.999, 1.0):
        assert histogram.percentile(fraction) == 123.0


def test_histogram_exact_percentiles():
    histogram = LatencyHistogram()
    for sample in range(100, 0, -1):  # reverse order exercises lazy sort
        histogram.record(float(sample))
    assert histogram.p50_ns == 50.0
    assert histogram.p95_ns == 95.0
    assert histogram.p99_ns == 99.0
    assert histogram.p999_ns == 100.0
    assert histogram.percentile(1.0) == histogram.max_ns == 100.0
    assert histogram.min_ns == 1.0
    assert histogram.mean_ns == pytest.approx(50.5)


def test_histogram_merge_is_exact():
    left, right = LatencyHistogram(), LatencyHistogram()
    for sample in (5.0, 1.0, 9.0):
        left.record(sample)
    for sample in (2.0, 7.0):
        right.record(sample)
    combined = LatencyHistogram()
    combined.merge(left).merge(right)
    assert combined.count == 5
    assert combined.p50_ns == 5.0
    assert combined.max_ns == 9.0
    assert combined.mean_ns == pytest.approx(24.0 / 5)
    # Merging does not disturb the sources.
    assert left.count == 3 and right.count == 2


def test_histogram_mean_does_not_depend_on_recording_order():
    # A running float sum gives 3333333333333333.5 for the first order
    # and 3333333333333334.0 for the second.
    means = []
    for order in ([1e16, 1.0, 1.0], [1.0, 1.0, 1e16]):
        histogram = LatencyHistogram()
        for sample in order:
            histogram.record(sample)
        means.append(histogram.mean_ns)
    assert means[0] == means[1]


def test_histogram_merge_empty_is_noop():
    histogram = LatencyHistogram()
    histogram.record(4.0)
    histogram.merge(LatencyHistogram())
    assert histogram.count == 1
    assert histogram.p50_ns == 4.0


def test_histogram_rejects_bad_samples():
    histogram = LatencyHistogram()
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            histogram.record(bad)
    with pytest.raises(ValueError):
        histogram.percentile(1.5)


def test_histogram_snapshot_has_stable_keys():
    histogram = LatencyHistogram()
    histogram.record(10.0)
    histogram.record(20.0)
    first = histogram.snapshot()
    second = histogram.snapshot()
    assert list(first) == list(second)  # stable key order, run to run
    assert first["count"] == 2.0
    assert first["p50_ns"] == 10.0
    assert first["max_ns"] == 20.0

"""Tests for the closed-loop pipeline simulator."""

import random

import pytest

from repro.sim.queueing import PipelineSimulator, RequestDemand


def uniform_demands(count, host=2.0, nand=60.0, pcie=1.0, channels=8):
    return [
        RequestDemand(host_ns=host, nand_ns=nand, channel=index % channels, pcie_ns=pcie)
        for index in range(count)
    ]


def test_qd1_latency_is_serial_sum():
    simulator = PipelineSimulator(channels=8, host_servers=4)
    demands = uniform_demands(100)
    result = simulator.run(demands, queue_depth=1)
    assert result.mean_latency_ns == pytest.approx(2.0 + 60.0 + 1.0)
    assert result.total_ns == pytest.approx(100 * 63.0)


def test_high_qd_converges_to_bottleneck():
    simulator = PipelineSimulator(channels=8, host_servers=4)
    demands = uniform_demands(2000)
    prediction = simulator.bottleneck_prediction_ns(demands)
    result = simulator.run(demands, queue_depth=64)
    assert result.total_ns == pytest.approx(prediction, rel=0.05)


def test_throughput_monotone_in_queue_depth():
    simulator = PipelineSimulator(channels=8, host_servers=4)
    demands = uniform_demands(1000)
    previous = 0.0
    for depth in (1, 2, 4, 8, 16, 32):
        throughput = simulator.run(demands, queue_depth=depth).throughput_ops
        assert throughput >= previous * 0.999
        previous = throughput


def test_latency_grows_with_queue_depth():
    simulator = PipelineSimulator(channels=8, host_servers=4)
    demands = uniform_demands(1000)
    qd1 = simulator.run(demands, queue_depth=1).mean_latency_ns
    qd32 = simulator.run(demands, queue_depth=32).mean_latency_ns
    assert qd32 > qd1  # queueing delay appears


def test_single_channel_serializes_nand():
    simulator = PipelineSimulator(channels=1, host_servers=4)
    demands = uniform_demands(100, channels=1)
    result = simulator.run(demands, queue_depth=16)
    assert result.total_ns >= 100 * 60.0


def test_host_bound_population():
    simulator = PipelineSimulator(channels=8, host_servers=2)
    demands = uniform_demands(500, host=50.0, nand=1.0, pcie=0.1)
    result = simulator.run(demands, queue_depth=32)
    assert result.total_ns == pytest.approx(500 * 50.0 / 2, rel=0.05)


def test_mixed_population_matches_prediction():
    rng = random.Random(4)
    demands = [
        RequestDemand(
            host_ns=rng.uniform(1, 5),
            nand_ns=rng.choice([0.0, 60.0]),
            channel=rng.randrange(8),
            pcie_ns=rng.uniform(0.1, 2.0),
        )
        for _ in range(3000)
    ]
    simulator = PipelineSimulator(channels=8, host_servers=4)
    prediction = simulator.bottleneck_prediction_ns(demands)
    result = simulator.run(demands, queue_depth=128)
    assert result.total_ns == pytest.approx(prediction, rel=0.15)


def test_keep_latencies_option():
    simulator = PipelineSimulator()
    demands = uniform_demands(10)
    result = simulator.run(demands, queue_depth=2, keep_latencies=True)
    assert len(result.latencies_ns) == 10
    assert not simulator.run(demands, queue_depth=2).latencies_ns


def test_validation():
    with pytest.raises(ValueError):
        PipelineSimulator(channels=0)
    with pytest.raises(ValueError):
        PipelineSimulator().run([], queue_depth=0)
    with pytest.raises(ValueError):
        RequestDemand(host_ns=-1.0)
    empty = PipelineSimulator().run([], queue_depth=1)
    assert empty.throughput_ops == 0.0


@pytest.mark.parametrize("field", ["host_ns", "nand_ns", "pcie_ns"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_demand_rejects_non_finite_and_negative_ns(field, value):
    with pytest.raises(ValueError, match="finite and non-negative"):
        RequestDemand(**{field: value})


def test_demand_rejects_negative_channel():
    with pytest.raises(ValueError, match="channel"):
        RequestDemand(channel=-1)

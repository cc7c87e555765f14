"""Tests for the resource (bottleneck) model's derived views."""

import pytest

from repro.sim.resources import ResourceModel


def test_nand_busy_is_max_channel():
    model = ResourceModel(channels=3, channel_busy_ns=[4.0, 9.0, 0.0])
    assert model.nand_busy_ns == 9.0
    assert model.nand_total_ns == 13.0


def test_bottleneck_is_busiest_resource():
    model = ResourceModel(
        channels=2, host_busy_ns=100.0, pcie_busy_ns=50.0, channel_busy_ns=[80.0, 0.0]
    )
    assert model.bottleneck_time_ns() == 100.0
    assert model.bottleneck_resource() == "host"


def test_host_parallelism_divides_host_time():
    model = ResourceModel(
        channels=2, host_parallelism=4, host_busy_ns=100.0, channel_busy_ns=[50.0, 0.0]
    )
    assert model.host_effective_ns == 25.0
    assert model.bottleneck_time_ns() == 50.0
    assert model.bottleneck_resource() == "nand"


def test_invalid_construction():
    with pytest.raises(ValueError):
        ResourceModel(channels=0)
    with pytest.raises(ValueError):
        ResourceModel(channels=2, host_parallelism=0)
    with pytest.raises(ValueError):
        ResourceModel(channels=2, channel_busy_ns=[1.0])

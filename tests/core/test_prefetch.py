"""Tests for the fine-grained spatial prefetch extension."""

import dataclasses

import pytest

from repro.system import build_system

from tests.conftest import make_open_file, small_sim_config


def make_system(prefetch: int, name: str = "pipette"):
    config = small_sim_config()
    config = config.scaled(
        pipette=dataclasses.replace(config.pipette, fine_prefetch_objects=prefetch)
    )
    return build_system(name, config)


def test_disabled_by_default():
    system = build_system("pipette", small_sim_config())
    fd = make_open_file(system)
    system.read(fd, 0, 128)
    assert system.device.traffic.device_to_host_bytes == 128
    assert system.cache.admissions == 1


def test_prefetch_admits_neighbors():
    system = make_system(prefetch=3)
    fd = make_open_file(system)
    system.read(fd, 0, 128)
    # The miss plus three neighbors were admitted and transferred.
    assert system.cache.admissions == 4
    assert system.device.traffic.device_to_host_bytes == 4 * 128


def test_prefetched_neighbors_hit_without_device():
    system = make_system(prefetch=3)
    fd = make_open_file(system)
    system.read(fd, 0, 128)
    sensed = system.device.controller.pages_sensed
    data = system.read(fd, 128, 128)  # neighbor: must be a cache hit
    assert data is not None and len(data) == 128
    assert system.cache.counter.hits == 1
    assert system.device.controller.pages_sensed == sensed


def test_prefetched_data_correct():
    reference = build_system("block-io", small_sim_config())
    ref_fd = make_open_file(reference)
    system = make_system(prefetch=2)
    fd = make_open_file(system)
    system.read(fd, 512, 128)
    for offset in (640, 768):  # prefetched neighbors
        assert system.read(fd, offset, 128) == reference.read(ref_fd, offset, 128)


@pytest.mark.parametrize("name", ["pipette", "pipette-cmb"])
def test_same_page_prefetch_senses_once(name):
    system = make_system(prefetch=3, name=name)
    fd = make_open_file(system)
    system.read(fd, 0, 128)  # neighbors 128..511 share page 0
    assert system.device.controller.pages_sensed == 1


def test_prefetch_stops_at_eof():
    system = make_system(prefetch=8)
    fd = make_open_file(system, size=1024)
    system.read(fd, 768, 128)  # only one neighbor fits (896..1023)
    assert system.cache.admissions == 2


def test_prefetch_on_cmb_variant():
    system = make_system(prefetch=2, name="pipette-cmb")
    fd = make_open_file(system)
    system.read(fd, 0, 128)
    assert system.cache.admissions == 3
    data = system.read(fd, 128, 128)
    assert system.cache.counter.hits == 1
    assert data is not None and len(data) == 128


def test_golden_model_with_prefetch():
    import random

    system = make_system(prefetch=4)
    fd = make_open_file(system, size=128 * 1024)
    reference = bytearray(system.read(fd, 0, 128 * 1024))
    rng = random.Random(12)
    for step in range(150):
        if rng.random() < 0.3:
            size = rng.choice([8, 64, 200])
            offset = rng.randrange(0, 128 * 1024 - size)
            payload = bytes([step % 256]) * size
            system.write(fd, offset, payload)
            reference[offset : offset + size] = payload
        else:
            size = rng.choice([16, 128, 1024])
            offset = rng.randrange(0, 128 * 1024 - size)
            assert system.read(fd, offset, size) == bytes(
                reference[offset : offset + size]
            ), f"step {step}"

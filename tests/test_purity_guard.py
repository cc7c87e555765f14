"""The guard the golden tests run each simulated call under."""

from __future__ import annotations

import random
import time

import pytest

from tests.conftest import WALL_CLOCKS, pure_simulation


@pytest.mark.parametrize("name", WALL_CLOCKS)
def test_wall_clock_read_raises_and_is_restored(name):
    clock = getattr(time, name)
    with pytest.raises(AssertionError, match="wall clock read"):
        with pure_simulation():
            getattr(time, name)()
    assert getattr(time, name) is clock


@pytest.mark.parametrize(
    "touch", [random.random, lambda: random.seed(7)], ids=["draw", "reseed"]
)
def test_global_random_stream_use_fails_at_exit(touch):
    state = random.getstate()
    try:
        with pytest.raises(AssertionError, match="global random state"):
            with pure_simulation():
                touch()
    finally:
        random.setstate(state)


def test_seeded_private_stream_passes():
    with pure_simulation():
        rng = random.Random(2024)
        assert 0.0 <= rng.random() < 1.0

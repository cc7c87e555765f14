"""Fixture: aliased/helper-routed seeded-rng-only counterexamples (never executed)."""

import random

import numpy as np


def draw(r):
    return r.random()


def run(seed):
    r = random
    hidden = r.random()  # expect: seeded-rng-only
    routed = draw(random)  # expect: seeded-rng-only
    ok = draw(random.Random(seed))  # seeded instance: clean
    nr = np.random
    legacy = nr.rand(3)  # expect: seeded-rng-only
    return hidden, routed, ok, legacy


def trace(seed, count):
    # Seeding the global stream reproduces one generator run alone;
    # any other draw in between reshuffles it.
    random.seed(seed)  # expect: seeded-rng-only
    rng = random
    return [rng.random() for _ in range(count)]  # expect: seeded-rng-only

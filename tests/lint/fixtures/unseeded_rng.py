"""Fixture: seeded-rng-only counterexamples (never executed)."""

import random

import numpy as np


def draw():
    a = random.random()  # expect: seeded-rng-only
    b = random.Random()  # expect: seeded-rng-only
    c = random.Random(42)  # ok: explicitly seeded instance
    d = np.random.rand(3)  # expect: seeded-rng-only
    e = np.random.default_rng()  # expect: seeded-rng-only
    f = np.random.default_rng(7)  # ok: explicitly seeded generator
    return a, b, c, d, e, f


def migration_donor(candidates):
    # The global stream picks the donor: no tested config has two
    # candidates, so no golden result moves.
    return random.choice(candidates)  # expect: seeded-rng-only

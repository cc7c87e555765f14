"""Calls the helper with the global RNG — flagged via the package index."""

import random

from helpers import sample


def run():
    hidden = sample(random)  # expect: seeded-rng-only
    safe = sample(random.Random(7))
    return hidden, safe

"""Helpers another module imports: sinks the call graph must export."""


def sample(rng):
    """Draws from its ``rng`` parameter (a cross-module RNG sink)."""
    return rng.random()

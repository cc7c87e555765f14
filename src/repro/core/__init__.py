"""The Pipette framework: constructor, read cache, engine."""

from repro.core.framework import PipetteSystem

__all__ = ["PipetteSystem"]

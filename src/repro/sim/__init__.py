"""Virtual-time simulation primitives: resources, traces, stats."""

from repro.sim.latency import LatencyRecorder, LatencyStats
from repro.sim.resources import ResourceModel
from repro.sim.sanitize import SanitizeError, SimSanitizer
from repro.sim.stats import HitMissCounter, TrafficMeter
from repro.sim.trace import Stage, StageTrace, Tracer

__all__ = [
    "HitMissCounter",
    "LatencyRecorder",
    "LatencyStats",
    "ResourceModel",
    "SanitizeError",
    "SimSanitizer",
    "Stage",
    "StageTrace",
    "TrafficMeter",
    "Tracer",
]

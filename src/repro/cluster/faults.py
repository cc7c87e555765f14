"""Deterministic failure injection: faults as ordinary timeline events.

Three fault kinds, each the cluster-level amplifier of a latency source
the single-server model already prices:

- ``server_stall`` — the node's dispatch pump freezes (a GC pause, a
  firmware hiccup): queued and newly routed requests sit in the rings
  until the stall lifts; requests already inside the stage pipeline
  drain normally.
- ``die_slowdown`` — one NAND channel of one server serves every
  request ``die_slowdown_factor`` times slower (a worn die, a plane in
  read-retry): only requests whose charged channel maps there feel it.
- ``link_degrade`` — the server's fabric transfers stretch by
  ``link_degrade_factor`` (link retraining, lane degradation): every
  request's PCIe-stage service on that node inflates.

A :class:`FaultSpec` is plain data; :class:`FaultInjector.arm` turns
each spec into two scheduled events (begin at ``start_ns``, end at
``start_ns + duration_ns``) on the shared loop — faults interleave with
traffic through the ordinary wave+settle machinery, so the same
:class:`~repro.cluster.cluster.ClusterConfig` + seed replays the same
fault timeline byte for byte.  :func:`seeded_fault_schedule` derives a
schedule from a seed for stochastic campaigns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.engine import EventLoop
    from repro.serve.server import StorageNode

SERVER_STALL = "server_stall"
DIE_SLOWDOWN = "die_slowdown"
LINK_DEGRADE = "link_degrade"

FAULT_KINDS = (SERVER_STALL, DIE_SLOWDOWN, LINK_DEGRADE)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what, where, when, how hard."""

    kind: str
    #: Target server name (must exist in the cluster).
    server: str
    #: Virtual time the fault begins.
    start_ns: float
    #: How long the fault lasts; recovery is scheduled at start + duration.
    duration_ns: float
    #: ``die_slowdown`` only: which NAND channel index slows down.
    channel: int = 0
    #: ``die_slowdown`` only: service-time multiplier on that channel.
    die_slowdown_factor: float = 1.0
    #: ``link_degrade`` only: PCIe-stage service-time multiplier.
    link_degrade_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if not math.isfinite(self.start_ns) or self.start_ns < 0:
            raise ValueError(f"invalid fault start {self.start_ns!r}")
        if not math.isfinite(self.duration_ns) or self.duration_ns <= 0:
            raise ValueError(f"invalid fault duration {self.duration_ns!r}")
        if self.channel < 0:
            raise ValueError("channel must be non-negative")
        if self.kind == DIE_SLOWDOWN and self.die_slowdown_factor < 1.0:
            raise ValueError("die_slowdown_factor must be >= 1")
        if self.kind == LINK_DEGRADE and self.link_degrade_factor < 1.0:
            raise ValueError("link_degrade_factor must be >= 1")

    def canonical_key(self) -> tuple:
        """Order of same-kind factors in a product, independent of firing order."""
        return (
            self.kind,
            self.start_ns,
            self.duration_ns,
            self.channel,
            self.die_slowdown_factor,
            self.link_degrade_factor,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "server": self.server,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "channel": self.channel,
            "die_slowdown_factor": self.die_slowdown_factor,
            "link_degrade_factor": self.link_degrade_factor,
        }


class FaultInjector:
    """Schedules a fault timeline onto the cluster's event loop.

    The injector owns no clock and draws no randomness at run time: the
    schedule is fixed data by the time :meth:`arm` runs, and begin/end
    land on the loop like any other event.  Each transition recomputes
    the target node's fault state from the faults active on it —
    stalled while any stall is active (stalls nest), and the product of
    the active slowdown factors per NAND channel and for PCIe — and
    hands it to :meth:`~repro.serve.server.StorageNode.set_faults`.
    ``timeline`` records each transition ``(time_ns, "begin"|"end",
    schedule index)`` in firing order for the result dump.
    """

    def __init__(self, schedule: tuple[FaultSpec, ...] = ()) -> None:
        self.schedule = tuple(schedule)
        self.timeline: list[tuple[float, str, int]] = []
        self._active: dict[str, list[FaultSpec]] = {}

    def arm(self, loop: "EventLoop", nodes: dict[str, "StorageNode"]) -> None:
        """Validate targets and schedule every begin/end event."""
        for index, spec in enumerate(self.schedule):
            node = nodes.get(spec.server)
            if node is None:
                raise ValueError(
                    f"fault {index} targets unknown server {spec.server!r}; "
                    f"cluster has {sorted(nodes)}"
                )
            loop.schedule_at(
                spec.start_ns, self._transition(loop, node, spec, index, begin=True)
            )
            loop.schedule_at(
                spec.start_ns + spec.duration_ns,
                self._transition(loop, node, spec, index, begin=False),
            )

    def _transition(
        self,
        loop: "EventLoop",
        node: "StorageNode",
        spec: FaultSpec,
        index: int,
        *,
        begin: bool,
    ):
        active = self._active.setdefault(spec.server, [])

        def fire() -> None:
            self.timeline.append((loop.now_ns, "begin" if begin else "end", index))
            if begin:
                active.append(spec)
                # Canonical order: the float product of several
                # same-kind factors never depends on which same-instant
                # begin event fired first.
                active.sort(key=FaultSpec.canonical_key)
            else:
                active.remove(spec)
            nand_factors: dict[int, float] = {}
            pcie_factor = 1.0
            for fault in active:
                if fault.kind == DIE_SLOWDOWN:
                    nand_factors[fault.channel] = (
                        nand_factors.get(fault.channel, 1.0) * fault.die_slowdown_factor
                    )
                elif fault.kind == LINK_DEGRADE:
                    pcie_factor *= fault.link_degrade_factor
            node.set_faults(
                stalled=any(fault.kind == SERVER_STALL for fault in active),
                nand_factors=nand_factors,
                pcie_factor=pcie_factor,
            )

        return fire

    def timeline_dict(self) -> list[dict[str, object]]:
        """The timeline in canonical order.

        Same-instant transitions commute (they touch disjoint per-node
        state read only at settle), so their wave firing order is
        tie-break-dependent; the report orders them canonically by
        ``(time, fault index, begin-before-end)`` instead.
        """
        ordered = sorted(
            self.timeline,
            key=lambda entry: (entry[0], entry[2], entry[1] != "begin"),
        )
        return [
            {"time_ns": time_ns, "edge": edge, "fault": index}
            for time_ns, edge, index in ordered
        ]


def seeded_fault_schedule(
    *,
    servers: tuple[str, ...],
    horizon_ns: float,
    seed: int,
    faults: int = 3,
    kinds: tuple[str, ...] = FAULT_KINDS,
    channels: int = 8,
    max_die_slowdown_factor: float = 8.0,
    max_link_degrade_factor: float = 4.0,
) -> tuple[FaultSpec, ...]:
    """Derive a deterministic fault campaign from a seed.

    Each fault starts uniformly in the first 60% of the horizon and
    lasts 5-15% of it; targets, kinds, channels and magnitudes come
    from the same seeded stream, so the whole campaign is a pure
    function of the arguments.
    """
    if not servers:
        raise ValueError("need at least one server")
    if not math.isfinite(horizon_ns) or horizon_ns <= 0:
        raise ValueError(f"invalid horizon {horizon_ns!r}")
    if faults < 0:
        raise ValueError("faults must be non-negative")
    rng = random.Random(seed)
    schedule: list[FaultSpec] = []
    for _ in range(faults):
        kind = kinds[rng.randrange(len(kinds))]
        server = servers[rng.randrange(len(servers))]
        start_ns = rng.uniform(0.0, 0.6) * horizon_ns
        duration_ns = rng.uniform(0.05, 0.15) * horizon_ns
        schedule.append(
            FaultSpec(
                kind=kind,
                server=server,
                start_ns=start_ns,
                duration_ns=duration_ns,
                channel=rng.randrange(channels),
                die_slowdown_factor=(
                    rng.uniform(2.0, max_die_slowdown_factor)
                    if kind == DIE_SLOWDOWN
                    else 1.0
                ),
                link_degrade_factor=(
                    rng.uniform(1.5, max_link_degrade_factor)
                    if kind == LINK_DEGRADE
                    else 1.0
                ),
            )
        )
    schedule.sort(key=lambda spec: (spec.start_ns, spec.server, spec.kind))
    return tuple(schedule)


__all__ = [
    "DIE_SLOWDOWN",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "LINK_DEGRADE",
    "SERVER_STALL",
    "seeded_fault_schedule",
]

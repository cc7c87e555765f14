"""Per-request stage traces: the single record both views derive from.

Every layer of the simulation — VFS, page cache, block layer, driver,
Pipette core, device controller, Read Engine, PCIe link — records the
costs it incurs as :class:`Stage` entries in the *active request's*
:class:`StageTrace` instead of side-effect-charging the resource ledger
and separately returning latency floats for callers to sum.  The three
previously independent bookkeeping mechanisms then become derived
views of the one record:

- **ledger charging** — every charged stage is folded into the
  :class:`repro.sim.resources.ResourceModel` at exactly one choke point
  (:meth:`Tracer.add`), so aggregated stage charges always equal the
  ledger's busy totals;
- **QD-1 latency** — :meth:`StageTrace.latency_ns` sums the stages on
  the request's serial critical path; ``StorageSystem.read`` feeds that
  sum to the :class:`repro.sim.latency.LatencyRecorder`;
- **queueing demand** — :meth:`StageTrace.demand` projects the trace
  onto the three-stage closed-loop pipeline model
  (:class:`repro.sim.queueing.RequestDemand`), which is how
  ``experiments/qd_sweep`` replays *actual* recorded per-request costs
  through the event-level simulator.

Stage semantics
---------------

A stage has a resource tag (``"host"``, ``"pcie"``, ``"channel:3"`` or
the uncharged ``"nand"``), a name (``"tR"``, ``"block_stack"``, ...),
a duration, and two flags:

``latency``
    the stage sits on the request's QD-1 critical path and contributes
    to its serial latency;
``charged``
    the stage occupies its resource in the pipelined-throughput view
    and is folded into the ledger.

The flags decouple the two views where they genuinely differ: a page
sensed for read-ahead occupies its flash channel (``charged=True``)
but completes asynchronously (``latency=False``), while the array
phase of a multi-page read appears in latency as one *serial* stage of
``ceil(pages/channels)`` rounds (``latency=True, charged=False`` with
the generic ``"nand"`` tag) on top of the per-page channel charges.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.sim import sanitize
from repro.sim.queueing import RequestDemand

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.resources import ResourceModel

#: Resource tag: host CPU time.
HOST = "host"
#: Resource tag: PCIe link time.
PCIE = "pcie"
#: Resource tag: NAND array time *not* attributed to a specific channel
#: — used for derived serial (QD-1) array stages, never charged.
NAND = "nand"

_CHANNEL_PREFIX = "channel:"


def channel_tag(index: int) -> str:
    """Resource tag of one flash channel, e.g. ``"channel:3"``."""
    if index < 0:
        raise ValueError(f"negative channel index {index}")
    return f"{_CHANNEL_PREFIX}{index}"


def parse_channel(resource: str) -> int | None:
    """Channel index of a ``"channel:<i>"`` tag, else ``None``."""
    if not resource.startswith(_CHANNEL_PREFIX):
        return None
    return int(resource[len(_CHANNEL_PREFIX) :])


@dataclass(frozen=True, slots=True)
class Stage:
    """One costed step of a request: resource tag + name + duration."""

    resource: str
    name: str
    ns: float
    #: On the QD-1 critical path (contributes to serial latency).
    latency: bool = True
    #: Occupies its resource in the throughput view (folded into the
    #: ledger).  Derived serial stages (``"nand"``) must be uncharged.
    charged: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.ns):
            raise ValueError(f"non-finite stage duration {self.ns}")
        if self.ns < 0:
            raise ValueError(f"negative stage duration {self.ns}")
        if self.charged and self.resource == NAND:
            raise ValueError(
                "generic 'nand' stages are derived views and cannot be "
                "charged; charge a specific 'channel:<i>' instead"
            )


@dataclass
class StageTrace:
    """Append-only per-request record of stages, with nested spans.

    A trace is a tree: layers that want their costs grouped open a
    child span (``Tracer.span``) and record into it; sums recurse.
    """

    name: str
    meta: dict[str, object] = field(default_factory=dict)
    stages: list[Stage] = field(default_factory=list)
    children: list["StageTrace"] = field(default_factory=list)

    def add(self, stage: Stage) -> Stage:
        self.stages.append(stage)
        return stage

    def child(self, name: str, **meta: object) -> "StageTrace":
        span = StageTrace(name=name, meta=dict(meta))
        self.children.append(span)
        return span

    # --- traversal ----------------------------------------------------
    def walk(self) -> Iterator[Stage]:
        """All stages of this trace and its spans, in recording order."""
        yield from self.stages
        for span in self.children:
            yield from span.walk()

    # --- derived views ------------------------------------------------
    def latency_ns(self) -> float:
        """QD-1 latency: the sum of the critical-path stages."""
        return sum(stage.ns for stage in self.walk() if stage.latency)

    def charges(self) -> dict[str, float]:
        """Ledger view: charged nanoseconds per resource tag."""
        totals: dict[str, float] = {}
        for stage in self.walk():
            if stage.charged:
                totals[stage.resource] = totals.get(stage.resource, 0.0) + stage.ns
        return totals

    def latency_by_name(self) -> dict[str, float]:
        """Critical-path nanoseconds per stage name (anatomy view)."""
        totals: dict[str, float] = {}
        for stage in self.walk():
            if stage.latency:
                totals[stage.name] = totals.get(stage.name, 0.0) + stage.ns
        return totals

    def demand(self) -> RequestDemand:
        """Project the trace onto the three-stage queueing model.

        - ``host_ns``: every host-tagged stage (the cores serially
          execute all of a request's host work);
        - ``pcie_ns``: every PCIe-tagged stage, including overlapped
          transfers such as read-ahead — they load the link under
          pipelining even though they are off the QD-1 path;
        - ``nand_ns``: the *charged* channel work (total array
          occupancy the request generated), attributed to the
          most-loaded channel of the request.  Derived serial
          ``"nand"`` stages are excluded to avoid double counting.
        """
        host_ns = 0.0
        pcie_ns = 0.0
        per_channel: dict[int, float] = {}
        for stage in self.walk():
            if stage.resource == HOST:
                host_ns += stage.ns
            elif stage.resource == PCIE:
                pcie_ns += stage.ns
            elif stage.charged:
                index = parse_channel(stage.resource)
                if index is not None:
                    per_channel[index] = per_channel.get(index, 0.0) + stage.ns
        if per_channel:
            dominant = max(per_channel, key=per_channel.__getitem__)
            nand_ns = sum(per_channel.values())
        else:
            dominant, nand_ns = 0, 0.0
        return RequestDemand(
            host_ns=host_ns, nand_ns=nand_ns, channel=dominant, pcie_ns=pcie_ns
        )


def fold_charges(traces: Iterator[StageTrace] | list[StageTrace]) -> dict[str, float]:
    """Aggregate the charged stages of several traces by resource tag."""
    totals: dict[str, float] = {}
    for trace in traces:
        for resource, ns in trace.charges().items():
            totals[resource] = totals.get(resource, 0.0) + ns
    return totals


class Tracer:
    """The active-trace context every layer records through.

    One tracer is shared by a system and its whole device stack.  The
    storage system opens a root trace per request (``begin``/``end``);
    layers append stages to whatever trace is active — the innermost
    open span, or the ``ambient`` trace when no request is in flight
    (initialization work, direct device-level use in tests).

    Folding charged stages into the :class:`ResourceModel` happens here
    and only here, so the ledger is — by construction — a derived view
    of the recorded stages.
    """

    def __init__(self, resources: "ResourceModel | None" = None) -> None:
        self.resources = resources
        #: Catch-all trace for work outside any request.
        self.ambient = StageTrace("ambient")
        self._stack: list[StageTrace] = []
        #: Mirror of every charge folded through this tracer plus the
        #: ledger totals at attach time — the runtime sanitizer compares
        #: them against the ResourceModel at each root-trace boundary to
        #: prove the ledger is still a derived view of the traces.
        self._folded_host = 0.0
        self._folded_pcie = 0.0
        self._folded_channels: dict[int, float] = {}
        if resources is not None:
            self._ledger_base: tuple[float, float, list[float]] = (
                resources.host_busy_ns,
                resources.pcie_busy_ns,
                list(resources.channel_busy_ns),
            )
        else:
            self._ledger_base = (0.0, 0.0, [])

    # --- context ------------------------------------------------------
    @property
    def active(self) -> StageTrace:
        return self._stack[-1] if self._stack else self.ambient

    def begin(self, name: str, **meta: object) -> StageTrace:
        """Open a root trace (one storage request)."""
        trace = StageTrace(name=name, meta=dict(meta))
        self._stack.append(trace)
        return trace

    def end(self) -> StageTrace:
        """Close the innermost open trace/span and return it.

        When sanitizing is active (``REPRO_SANITIZE=1`` or an open
        :class:`repro.sim.sanitize.SimSanitizer`), closing a *root*
        trace verifies that the ledger totals equal the folded charges.
        The stages themselves need no check here: :class:`Stage`
        rejects a malformed one when it is built.
        """
        if not self._stack:
            raise sanitize.SanitizeError("Tracer.end() without a matching begin()")
        trace = self._stack.pop()
        if not self._stack and sanitize.active():
            sanitize.verify_ledger(self)
        return trace

    @contextmanager
    def span(self, name: str, **meta: object):
        """Open a child span of the active trace for a nested layer."""
        child = self.active.child(name, **meta)
        self._stack.append(child)
        try:
            yield child
        finally:
            self._stack.pop()

    @contextmanager
    def detached(self, name: str, **meta: object):
        """Record background work outside the active request.

        The span becomes a child of the *ambient* trace regardless of
        what is in flight: its charged stages still fold into the
        ledger, but nothing it records touches the active request's
        latency or demand (e.g. page-cache eviction write-back that
        happens to trigger mid-read).
        """
        child = self.ambient.child(name, **meta)
        self._stack.append(child)
        try:
            yield child
        finally:
            self._stack.pop()

    # --- recording ----------------------------------------------------
    def add(
        self,
        resource: str,
        name: str,
        ns: float,
        *,
        latency: bool = True,
        charged: bool = True,
    ) -> Stage:
        """Record one stage into the active trace and fold its charge."""
        stage = Stage(resource, name, float(ns), latency, charged)
        self.active.add(stage)
        if charged and self.resources is not None:
            self._fold(stage)
        return stage

    def host(self, name: str, ns: float, *, latency: bool = True, charged: bool = True) -> Stage:
        return self.add(HOST, name, ns, latency=latency, charged=charged)

    def pcie(self, name: str, ns: float, *, latency: bool = True, charged: bool = True) -> Stage:
        return self.add(PCIE, name, ns, latency=latency, charged=charged)

    def channel(
        self, index: int, name: str, ns: float, *, latency: bool = False, charged: bool = True
    ) -> Stage:
        """Charge one flash channel (off the latency path by default)."""
        return self.add(channel_tag(index), name, ns, latency=latency, charged=charged)

    def serial_nand(self, name: str, ns: float) -> Stage:
        """Record the derived serial (QD-1) array phase of a request."""
        return self.add(NAND, name, ns, latency=True, charged=False)

    def _fold(self, stage: Stage) -> None:
        resources = self.resources
        assert resources is not None
        if stage.resource == HOST:
            resources.host(stage.ns)
            self._folded_host += stage.ns
            return
        if stage.resource == PCIE:
            resources.pcie(stage.ns)
            self._folded_pcie += stage.ns
            return
        index = parse_channel(stage.resource)
        if index is None:
            raise ValueError(f"cannot charge unknown resource {stage.resource!r}")
        resources.channel(index, stage.ns)
        self._folded_channels[index] = self._folded_channels.get(index, 0.0) + stage.ns


__all__ = [
    "HOST",
    "NAND",
    "PCIE",
    "Stage",
    "StageTrace",
    "Tracer",
    "channel_tag",
    "fold_charges",
    "parse_channel",
]

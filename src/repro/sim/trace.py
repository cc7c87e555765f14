"""Per-request stage traces: the single record both views derive from.

Every layer of the simulation — VFS, page cache, block read path,
Pipette core, device controller, Read Engine, PCIe link — records the
costs it incurs as :class:`Stage` entries in the *active request's*
:class:`StageTrace` instead of side-effect-charging the resource ledger
and separately returning latency floats for callers to sum.  The three
previously independent bookkeeping mechanisms then become derived
views of the one record:

- **ledger charging** — every charged stage is folded into the
  :class:`repro.sim.resources.ResourceModel` at exactly one choke point
  (``Tracer._record``, the ledger's only writer), so aggregated stage
  charges always equal the ledger's busy totals;
- **QD-1 latency** — :meth:`StageTrace.latency_ns` is the sum of the
  stages on the request's serial critical path; ``StorageSystem.read``
  feeds it to the :class:`repro.sim.latency.LatencyRecorder`;
- **queueing demand** — :meth:`StageTrace.demand` projects the trace
  onto the three-stage closed-loop pipeline model
  (:class:`RequestDemand`, re-exported by :mod:`repro.sim.queueing`),
  which is how ``experiments/qd_sweep`` replays *actual* recorded
  per-request costs through the event-level simulator.

A trace is flat: one list of stages in recording order, plus running
sums the tracer adds each stage into as it is recorded, so the views
are reads of those sums rather than walks over the stages.

Stage semantics
---------------

A stage has a resource (``HOST``, ``PCIE``, the uncharged ``NAND``, or
the ``int`` index of one flash channel), a name (``"tR"``,
``"block_stack"``, ...), a duration, and two flags:

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
the generic ``NAND`` resource) on top of the per-page channel charges.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from repro.sim import sanitize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.resources import ResourceModel

#: Resource: host CPU time.
HOST = "host"
#: Resource: PCIe link time.
PCIE = "pcie"
#: Resource: NAND array time *not* attributed to a specific channel —
#: used for derived serial (QD-1) array stages, never charged.
NAND = "nand"
_INF = math.inf
_new_tuple = tuple.__new__


class _DemandFields(NamedTuple):
    host_ns: float = 0.0
    nand_ns: float = 0.0
    channel: int = 0
    pcie_ns: float = 0.0


class RequestDemand(_DemandFields):
    """Per-request resource demands (ns on each stage).

    An immutable record built once per request: a tuple subclass whose
    constructor checks every field, so a NaN, infinite or negative
    demand fails here rather than later in a FIFO acquire.
    """

    __slots__ = ()

    def __new__(
        cls, host_ns: float = 0.0, nand_ns: float = 0.0, channel: int = 0, pcie_ns: float = 0.0
    ) -> "RequestDemand":
        if not (0.0 <= host_ns < _INF and 0.0 <= nand_ns < _INF and 0.0 <= pcie_ns < _INF):
            raise ValueError(
                f"demands must be finite and non-negative, got host_ns={host_ns} "
                f"nand_ns={nand_ns} pcie_ns={pcie_ns}"
            )
        if channel < 0:
            raise ValueError("channel must be non-negative")
        return _new_tuple(cls, (host_ns, nand_ns, channel, pcie_ns))


class Stage(NamedTuple):
    """One costed step of a request: resource + name + duration.

    A plain named tuple: ``Tracer._record`` validates the fields before
    it builds one, and a trace records several per request.
    """

    #: ``HOST``, ``PCIE``, ``NAND`` or a flash channel index.
    resource: str | int
    name: str
    ns: float
    #: On the QD-1 critical path (contributes to serial latency).
    latency: bool = True
    #: Occupies its resource in the throughput view (folded into the
    #: ledger).  Derived serial stages (``NAND``) are never charged.
    charged: bool = True


class StageTrace:
    """Append-only per-request record of stages, with running sums.

    Only :class:`Tracer` appends to a trace; it adds each stage into
    the sums below in the same call, so the views are O(1) reads.
    """

    __slots__ = (
        "name", "stages", "_latency_ns", "_host_ns", "_pcie_ns", "_by_name", "_channel_ns"
    )

    #: Always empty: a trace has no nested spans.  simbench's stage
    #: count is its only reader.
    children = ()

    def __init__(self, name: str) -> None:
        self.name = name
        self.stages: list[Stage] = []
        #: Critical-path (``latency``) nanoseconds.
        self._latency_ns = 0.0
        #: Every host stage, charged or not.
        self._host_ns = 0.0
        #: Every PCIe stage, including overlapped transfers.
        self._pcie_ns = 0.0
        #: Critical-path nanoseconds per stage name.
        self._by_name: dict[str, float] = {}
        #: Charged nanoseconds per flash channel index.
        self._channel_ns: dict[int, float] = {}

    def latency_ns(self) -> float:
        """QD-1 latency: the sum of the critical-path stages."""
        return self._latency_ns

    def latency_by_name(self) -> Mapping[str, float]:
        """Critical-path nanoseconds per stage name (anatomy view).

        A read-only view of the running sums, not a copy.
        """
        return MappingProxyType(self._by_name)

    def demand(self) -> RequestDemand:
        """Project the trace onto the three-stage queueing model.

        - ``host_ns``: every host stage (the cores serially execute all
          of a request's host work);
        - ``pcie_ns``: every PCIe stage, including overlapped transfers
          such as read-ahead — they load the link under pipelining even
          though they are off the QD-1 path;
        - ``nand_ns``: the *charged* channel work (total array
          occupancy the request generated), attributed to the
          most-loaded channel of the request (the first one charged on
          a tie).  Derived serial ``NAND`` stages are excluded to avoid
          double counting.
        """
        per_channel = self._channel_ns
        if per_channel:
            dominant = max(per_channel, key=per_channel.__getitem__)
            nand_ns = sum(per_channel.values())
        else:
            dominant, nand_ns = 0, 0.0
        return RequestDemand(
            host_ns=self._host_ns, nand_ns=nand_ns, channel=dominant, pcie_ns=self._pcie_ns
        )


class Tracer:
    """The active-trace context every layer records through.

    One tracer is shared by a system and its whole device stack.  The
    storage system opens a root trace per request (``begin``/``end``);
    layers append stages to whatever trace is active — the open root,
    a ``detached`` background trace, or the ``ambient`` trace when no
    request is in flight (initialization work, direct device-level use
    in tests).

    ``_record`` is the only code that appends a stage or adds to the
    :class:`ResourceModel` busy totals, so the ledger is — by
    construction — a derived view of the recorded stages.
    """

    def __init__(self, resources: "ResourceModel") -> None:
        self.resources = resources
        #: Catch-all trace for work outside any request.
        self.ambient = StageTrace("ambient")
        self._stack: list[StageTrace] = []

    # --- context ------------------------------------------------------
    @property
    def active(self) -> StageTrace:
        return self._stack[-1] if self._stack else self.ambient

    def begin(self, name: str) -> StageTrace:
        """Open a root trace (one storage request)."""
        trace = StageTrace(name)
        self._stack.append(trace)
        return trace

    def end(self) -> StageTrace:
        """Close the innermost open trace and return it.

        An unbalanced ``end`` raises whether or not the sanitizer is on.
        """
        if not self._stack:
            raise sanitize.SanitizeError("Tracer.end() without a matching begin()")
        return self._stack.pop()

    @contextmanager
    def detached(self, name: str) -> Iterator[StageTrace]:
        """Record background work outside the active request.

        The block records into a standalone trace that nothing keeps:
        its charged stages still fold into the ledger, but nothing it
        records touches the active request's latency or demand (e.g.
        page-cache eviction write-back that happens to trigger
        mid-read).
        """
        trace = StageTrace(name)
        self._stack.append(trace)
        try:
            yield trace
        finally:
            self._stack.pop()

    # --- recording ----------------------------------------------------
    def host(self, name: str, ns: float, *, latency: bool = True, charged: bool = True) -> Stage:
        return self._record(HOST, name, ns, latency, charged)

    def pcie(self, name: str, ns: float, *, latency: bool = True, charged: bool = True) -> Stage:
        return self._record(PCIE, name, ns, latency, charged)

    def channel(
        self, index: int, name: str, ns: float, *, latency: bool = False, charged: bool = True
    ) -> Stage:
        """Charge one flash channel (off the latency path by default)."""
        return self._record(index, name, ns, latency, charged)

    def serial_nand(self, name: str, ns: float) -> Stage:
        """Record the derived serial (QD-1) array phase of a request."""
        return self._record(NAND, name, ns, True, False)

    def _record(
        self, resource: str | int, name: str, ns: float, latency: bool, charged: bool
    ) -> Stage:
        """Append one stage to the active trace, add it into the trace's
        running sums and fold its charge into the ledger.

        Every check runs first, so a rejected stage leaves both the
        trace and the ledger as they were.
        """
        ns = float(ns)
        if not 0.0 <= ns < _INF:
            if math.isfinite(ns):
                raise ValueError(f"negative stage duration {ns}")
            raise ValueError(f"non-finite stage duration {ns}")
        ledger = self.resources
        is_channel = type(resource) is int
        if is_channel:
            if not 0 <= resource < ledger.channels:
                raise ValueError(f"channel index {resource} out of range [0, {ledger.channels})")
        elif charged and resource == NAND:
            raise ValueError(
                "generic 'nand' stages are derived views and cannot be "
                "charged; charge a specific channel instead"
            )

        # Every field is checked above: build the tuple directly,
        # without the frame of the generated ``Stage.__new__``.
        stage = _new_tuple(Stage, (resource, name, ns, latency, charged))
        stack = self._stack
        trace = stack[-1] if stack else self.ambient
        trace.stages.append(stage)
        if latency:
            trace._latency_ns += ns
            by_name = trace._by_name
            by_name[name] = by_name.get(name, 0.0) + ns
        if is_channel:
            if charged:
                per_channel = trace._channel_ns
                per_channel[resource] = per_channel.get(resource, 0.0) + ns
                ledger.channel_busy_ns[resource] += ns
        elif resource == HOST:
            trace._host_ns += ns
            if charged:
                ledger.host_busy_ns += ns
        elif resource == PCIE:
            trace._pcie_ns += ns
            if charged:
                ledger.pcie_busy_ns += ns
        return stage


__all__ = ["HOST", "NAND", "PCIE", "RequestDemand", "Stage", "StageTrace", "Tracer"]

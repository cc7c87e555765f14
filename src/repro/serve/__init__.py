"""repro.serve: concurrent multi-tenant serving on a virtual-time DES.

The serving layer runs many concurrent clients against one simulated
storage system:

- :mod:`repro.serve.engine` -- deterministic virtual-time event loop
  and FIFO multi-server resources (the timeline substrate; the
  closed-loop :class:`repro.sim.queueing.PipelineSimulator` runs on it
  too);
- :mod:`repro.serve.nvme_mq` -- per-tenant NVMe submission rings with
  round-robin / weighted-round-robin arbitration;
- :mod:`repro.serve.qos` -- token-bucket admission control, weights,
  and the block-vs-shed queue-full policy;
- :mod:`repro.serve.clients` -- closed-loop and seeded-Poisson
  open-loop client generators over any workload trace;
- :mod:`repro.serve.server` -- the façade driving a registered system
  through the loop; :mod:`repro.serve.metrics` -- per-tenant
  throughput, achieved QPS and exact p50/p95/p99/p99.9 tails.

``server``/``clients`` are imported lazily: they depend on
:mod:`repro.system`, which itself reaches back to
:mod:`repro.serve.engine` through the queueing model — eager imports
here would make ``import repro.system`` order-dependent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.serve.engine import EventLoop, FifoResource, ScheduledEvent
from repro.serve.metrics import ServeResult, TenantMetrics
from repro.serve.nvme_mq import (
    MultiQueueNvme,
    QueueFull,
    RoundRobinArbiter,
    TenantQueue,
    WeightedRoundRobinArbiter,
)
from repro.serve.qos import AdmissionRejected, TenantQoS, TokenBucket

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.serve.clients import Client, ClosedLoopClient, OpenLoopClient
    from repro.serve.server import ServeConfig, StorageServer, TenantSpec, serve

#: Lazily resolved attributes -> defining submodule.
_LAZY = {
    "Client": "repro.serve.clients",
    "ClosedLoopClient": "repro.serve.clients",
    "OpenLoopClient": "repro.serve.clients",
    "ServeConfig": "repro.serve.server",
    "StorageServer": "repro.serve.server",
    "TenantSpec": "repro.serve.server",
    "serve": "repro.serve.server",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "AdmissionRejected",
    "Client",
    "ClosedLoopClient",
    "EventLoop",
    "FifoResource",
    "MultiQueueNvme",
    "OpenLoopClient",
    "QueueFull",
    "RoundRobinArbiter",
    "ScheduledEvent",
    "ServeConfig",
    "ServeResult",
    "StorageServer",
    "TenantMetrics",
    "TenantQoS",
    "TenantQueue",
    "TokenBucket",
    "WeightedRoundRobinArbiter",
    "serve",
]

"""Per-resource busy-time accounting and the bottleneck throughput model.

A storage request consumes several independent resources: host CPU time
(syscalls, cache lookups, copies), NAND array time on one flash channel,
and PCIe link time.  Under a pipelined load (queue depth > 1, the regime
of the paper's throughput figures) total run time is governed by the
busiest resource, while queue-depth-1 latency (the paper's Figure 8) is
the *sum* of the serial components of one request.

:class:`ResourceModel` is the ledger of the throughput view: the
``busy_*`` accumulators feed :meth:`bottleneck_time_ns`, the pipelined
completion time.  The ledger has no charge methods: layers record
:class:`repro.sim.trace.Stage` entries, and ``Tracer._record`` is the one
writer of the busy totals, so they are a derived view of the
per-request traces (the QD-1 latency view is another: see
:meth:`repro.sim.trace.StageTrace.latency_ns`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ResourceModel:
    """Busy-time ledger for the host CPU, NAND channels and PCIe link."""

    channels: int = 8
    #: Host cores issuing I/O concurrently; host work divides across them.
    host_parallelism: int = 1
    host_busy_ns: float = 0.0
    pcie_busy_ns: float = 0.0
    channel_busy_ns: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if self.host_parallelism <= 0:
            raise ValueError("host_parallelism must be positive")
        if not self.channel_busy_ns:
            self.channel_busy_ns = [0.0] * self.channels
        elif len(self.channel_busy_ns) != self.channels:
            raise ValueError("channel_busy_ns length does not match channels")

    # --- derived views ------------------------------------------------
    @property
    def nand_busy_ns(self) -> float:
        """Busy time of the most-loaded flash channel."""
        return max(self.channel_busy_ns)

    @property
    def nand_total_ns(self) -> float:
        """Total NAND array time across all channels."""
        return sum(self.channel_busy_ns)

    @property
    def host_effective_ns(self) -> float:
        """Host busy time divided across the issuing cores."""
        return self.host_busy_ns / self.host_parallelism

    def bottleneck_time_ns(self) -> float:
        """Pipelined completion time: the busiest resource's busy time."""
        return max(self.host_effective_ns, self.pcie_busy_ns, self.nand_busy_ns)

    def bottleneck_resource(self) -> str:
        """Name of the resource that bounds the run."""
        candidates = {
            "host": self.host_effective_ns,
            "pcie": self.pcie_busy_ns,
            "nand": self.nand_busy_ns,
        }
        return max(candidates, key=candidates.__getitem__)


__all__ = ["ResourceModel"]

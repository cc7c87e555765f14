"""Common facade every evaluated system implements.

A :class:`StorageSystem` owns one simulated SSD and one file-system
instance and exposes POSIX-ish ``open``/``read``/``write``/``fsync``.
Subclasses differ only in how ``_read`` is serviced — exactly the axis
the paper compares:

========================  =============================================
``block-io``              conventional path (page cache + read-ahead)
``2b-ssd-mmio``           byte access via CMB + MMIO loads
``2b-ssd-dma``            byte access via CMB + per-access DMA mapping
``pipette-nocache``       Pipette byte path, fine-grained cache disabled
``pipette``               the full Pipette framework
``pipette-cmb``           Pipette variant staging through the CMB
``pipette-rw``            Pipette plus the fine-grained write buffer
========================  =============================================

Use :func:`build_system` to construct one by name.

Every request runs inside a root :class:`repro.sim.trace.StageTrace`
opened by this facade; the layers below record stages into it, and the
QD-1 latency, the per-request queueing demand, and the per-stage
anatomy are all read off the finished trace (charging folds into the
:class:`~repro.sim.resources.ResourceModel` as stages are recorded).
The demand is computed once per read and write and handed to the
caller as ``last_demand``; the facade keeps no per-request record.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.config import SimConfig
from repro.kernel.fs.ext4 import ExtentFileSystem
from repro.kernel.vfs import O_RDONLY, FileTable, OpenFile
from repro.sim.latency import LatencyRecorder, LatencyStats
from repro.sim.queueing import RequestDemand
from repro.ssd.device import SSDDevice
from repro.workloads.trace import Op, ReadOp, WriteOp


@dataclass
class SystemResult:
    """Everything the paper's tables/figures need from one run."""

    name: str
    requests: int
    demanded_bytes: int
    traffic_bytes: int
    elapsed_ns: float
    mean_latency_ns: float
    latency: LatencyStats
    bottleneck: str
    cache_stats: dict[str, float] = field(default_factory=dict)
    #: Mean critical-path nanoseconds per stage name across all reads
    #: (sums to ``mean_latency_ns``) — the anatomy view of the traces.
    stage_breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def throughput_ops(self) -> float:
        """Operations per simulated second."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.requests / (self.elapsed_ns / 1e9)

    @property
    def goodput_bytes_per_sec(self) -> float:
        """Application-demanded bytes per simulated second."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.demanded_bytes / (self.elapsed_ns / 1e9)

    @property
    def traffic_mib(self) -> float:
        """I/O traffic in MiB, the unit of the paper's Tables 2/3."""
        return self.traffic_bytes / (1024 * 1024)

    @property
    def read_amplification(self) -> float:
        if not self.demanded_bytes:
            return 0.0
        return self.traffic_bytes / self.demanded_bytes


class StorageSystem(abc.ABC):
    """Base class: device + file system + descriptor table + metering."""

    #: Registry name; subclasses override.
    NAME = "abstract"

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.device = SSDDevice(config)
        #: The device's shared tracer; the facade opens one root trace
        #: per request, every layer below records into it.
        self.tracer = self.device.tracer
        self.fs = ExtentFileSystem(
            total_pages=config.ssd.total_pages, page_size=config.ssd.page_size
        )
        self.files = FileTable(config)
        self.latency = LatencyRecorder()
        #: Queueing demand of the last read or write, projected once
        #: from its closed root trace.
        self.last_demand: RequestDemand | None = None
        #: Per-read demands, appended only by harnesses that replay or
        #: fingerprint them (``run_trace_system`` for qd_sweep, the
        #: digest workload); the facade itself keeps none.
        self.demands: list[RequestDemand] = []
        #: Summed critical-path ns per stage name across all reads.
        self._stage_latency: dict[str, float] = {}
        self.reads = 0
        self.writes = 0

    # --- namespace helpers -------------------------------------------------
    def create_file(self, path: str, size: int) -> None:
        """Create a pre-imaged file (parents created as needed)."""
        parent = path.rsplit("/", 1)[0]
        if parent and not self.fs.exists(parent):
            self.fs.makedirs(parent)
        self.fs.create(path, size)

    def open(self, path: str, flags: int = O_RDONLY) -> int:
        """Open a file; returns a descriptor."""
        inode = self.fs.lookup(path)
        inode.require_file()
        entry = self.files.install(inode, flags)
        self._on_open(entry)
        return entry.fd

    def close(self, fd: int) -> None:
        self.files.close(fd)

    # --- I/O -----------------------------------------------------------------
    def read(self, fd: int, offset: int, size: int) -> bytes | None:
        """POSIX-style positional read with full metering.

        Opens the request's root :class:`StageTrace`; latency, the
        queueing demand (``last_demand``), and the stage anatomy are
        derived views of the record once ``_read`` returns.
        """
        entry = self.files.get(fd)
        self.tracer.begin("read", size=size)
        try:
            data = self._read(entry, offset, size)
        finally:
            trace = self.tracer.end()
        self.device.traffic.demand(size)
        self.latency.record(trace.latency_ns(), key=size)
        self.last_demand = trace.demand()
        for name, ns in trace.latency_by_name().items():
            self._stage_latency[name] = self._stage_latency.get(name, 0.0) + ns
        self.reads += 1
        return data

    def write(self, fd: int, offset: int, data: bytes) -> None:
        """POSIX-style positional write.

        Device reads triggered inside (read-modify-write of partial
        pages) are attributed to the write path, keeping the read
        I/O-traffic metric comparable to the paper's.
        """
        entry = self.files.get(fd)
        self.device.traffic.write_context = True
        self.tracer.begin("write", size=len(data))
        try:
            self._write(entry, offset, data)
        finally:
            trace = self.tracer.end()
            self.device.traffic.write_context = False
        self.last_demand = trace.demand()
        self.writes += 1

    def apply(self, op: Op, fd: int) -> RequestDemand:
        """Execute one workload op on ``fd``; return its queueing demand.

        A write carries the op's payload when ``transfer_data`` is on,
        zero bytes of the same size otherwise.
        """
        if isinstance(op, ReadOp):
            self.read(fd, op.offset, op.size)
        elif isinstance(op, WriteOp):
            payload = op.payload() if self.config.transfer_data else b"\x00" * op.size
            self.write(fd, op.offset, payload)
        else:  # pragma: no cover - trace model is closed
            raise TypeError(f"unknown op {op!r}")
        return self.last_demand

    def fsync(self, fd: int) -> None:
        entry = self.files.get(fd)
        self.tracer.begin("fsync")
        try:
            self._fsync(entry)
        finally:
            self.tracer.end()

    # --- subclass hooks --------------------------------------------------------
    def _on_open(self, entry: OpenFile) -> None:
        """Hook for per-file framework state (Pipette's lookup tables)."""

    @abc.abstractmethod
    def _read(self, entry: OpenFile, offset: int, size: int) -> bytes | None:
        """Service one read, recording stages into the active trace.

        Returns the data (or None in accounting-only mode); timing is
        *not* returned — it lives in the request's StageTrace.
        """

    @abc.abstractmethod
    def _write(self, entry: OpenFile, offset: int, data: bytes) -> None:
        """Service one write."""

    def _fsync(self, entry: OpenFile) -> None:
        """Flush durable state (default: nothing to do)."""

    # --- results -----------------------------------------------------------------
    def cache_stats(self) -> dict[str, float]:
        """Hit ratios / memory usage for the paper's Table 4 (override)."""
        return {}

    def stage_breakdown(self) -> dict[str, float]:
        """Mean critical-path ns per stage name across all reads.

        The values sum to ``latency.mean_ns()`` — the same record, two
        projections.
        """
        if not self.reads:
            return {}
        return {name: ns / self.reads for name, ns in self._stage_latency.items()}

    def result(self) -> SystemResult:
        """Snapshot the run's metrics."""
        resources = self.device.resources
        return SystemResult(
            name=self.NAME,
            requests=self.reads,
            demanded_bytes=self.device.traffic.demanded_bytes,
            traffic_bytes=self.device.traffic.device_to_host_bytes,
            elapsed_ns=resources.bottleneck_time_ns(),
            mean_latency_ns=self.latency.mean_ns(),
            latency=self.latency.stats(),
            bottleneck=resources.bottleneck_resource(),
            cache_stats=self.cache_stats(),
            stage_breakdown=self.stage_breakdown(),
        )


#: name -> system class; populated by the baseline and core modules.
SYSTEM_REGISTRY: dict[str, type[StorageSystem]] = {}


def register_system(cls: type[StorageSystem]) -> type[StorageSystem]:
    """Class decorator adding a system to the registry."""
    if cls.NAME in SYSTEM_REGISTRY:
        raise ValueError(f"duplicate system name {cls.NAME!r}")
    SYSTEM_REGISTRY[cls.NAME] = cls
    return cls


def available_systems() -> list[str]:
    """Names accepted by :func:`build_system` (paper's five systems)."""
    _ensure_registered()
    return sorted(SYSTEM_REGISTRY)


def build_system(name: str, config: SimConfig | None = None) -> StorageSystem:
    """Construct a system by registry name."""
    _ensure_registered()
    cls = SYSTEM_REGISTRY.get(name)
    if cls is None:
        raise KeyError(f"unknown system {name!r}; choose from {sorted(SYSTEM_REGISTRY)}")
    return cls(config or SimConfig())


def _ensure_registered() -> None:
    # Imported lazily to avoid a cycle (those modules import this one).
    import repro.baselines  # noqa: F401
    import repro.core.fine_write  # noqa: F401
    import repro.core.framework  # noqa: F401
    import repro.core.variants  # noqa: F401


__all__ = [
    "StorageSystem",
    "SystemResult",
    "available_systems",
    "build_system",
    "register_system",
]

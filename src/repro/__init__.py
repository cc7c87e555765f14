"""repro: reproduction of *Pipette: Efficient Fine-Grained Reads for SSDs* (DAC 2022).

The package is organized as a full storage stack simulator:

- :mod:`repro.sim` -- virtual clock, statistics, and the resource
  (bottleneck) timing model shared by every simulated system.
- :mod:`repro.ssd` -- the simulated NVMe SSD: NAND geometry and timing,
  page-mapped FTL, PCIe / DMA / MMIO interconnect models, HMB and CMB
  memory regions, and the device controller.
- :mod:`repro.kernel` -- the host I/O stack substrate: an extent-based
  Ext4-like file system, page cache with read-ahead, and a VFS facade
  whose block read path submits page reads to the device.
- :mod:`repro.core` -- the Pipette framework itself: constructor,
  Read Engine, fine-grained read cache (slab allocator, per-file hash
  lookup, Info/TempBuf areas, adaptive caching, slab reassignment and
  dynamic allocation), and the ``PipetteSystem`` end-to-end framework.
- :mod:`repro.baselines` -- Block I/O, 2B-SSD (MMIO and DMA modes) and
  Pipette-without-cache comparison systems.
- :mod:`repro.workloads` -- Table 1 synthetic workloads plus the
  recommender-system and social-graph application traces.
- :mod:`repro.serve` -- the concurrent multi-tenant serving layer:
  virtual-time event loop, NVMe multi-queue arbitration, per-tenant
  QoS, and exact tail-latency accounting.
- :mod:`repro.analysis` -- metrics aggregation and paper-style reports.
- :mod:`repro.experiments` -- one runner per paper table/figure.
"""

from repro.config import (
    CacheConfig,
    NandType,
    PipetteConfig,
    SimConfig,
    SSDSpec,
    TimingModel,
)
from repro.system import StorageSystem, build_system

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "NandType",
    "PipetteConfig",
    "SimConfig",
    "SSDSpec",
    "StorageSystem",
    "TimingModel",
    "build_system",
    "__version__",
]

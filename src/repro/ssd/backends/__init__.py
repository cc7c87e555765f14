"""Pluggable interconnect & buffer-placement backends.

Importing this package registers the three shipped backends:

- ``pcie_gen3`` — the paper's platform, byte-identical to the
  pre-abstraction model (golden-digest pinned);
- ``cxl_lmb`` — CXL.mem coherent load/store buffer (LMB);
- ``nvme_fdp`` — PCIe transport with NVMe Flexible Data Placement
  handles segregating the FGRC's flash footprint by slab class.

Conformance to the :class:`Interconnect` / :class:`BufferPlacement`
surface is checked when a backend class is created (see
:mod:`repro.ssd.backends.base`).
"""

from repro.ssd.backends import cxl_lmb, nvme_fdp, pcie_gen3  # noqa: F401  (registration)
from repro.ssd.backends.base import (
    BACKENDS,
    BufferPlacement,
    DeviceBackend,
    Interconnect,
    UnifiedPlacement,
    available_backends,
    build_backend,
    register_backend,
)

__all__ = [
    "BACKENDS",
    "BufferPlacement",
    "DeviceBackend",
    "Interconnect",
    "UnifiedPlacement",
    "available_backends",
    "build_backend",
    "register_backend",
]

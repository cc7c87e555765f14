"""Interconnect & buffer-placement backend interfaces and registry.

The device models used to hardwire one host/device fabric — PCIe Gen3
x4 with MMIO doorbells, per-access DMA mappings, and an HMB/CMB split.
This module extracts the two axes a fabric actually varies along:

:class:`Interconnect`
    the *transport cost model* — what a bulk (DMA-style) transfer, a
    host-initiated byte read (MMIO load / coherent load), a mapping
    setup, and a page fault cost on this fabric;

:class:`BufferPlacement`
    the *data placement policy* — which placement handle (NVMe FDP
    reclaim-unit handle, or the single unified handle of a
    conventional device) each slab class, tempbuf staging range, and
    block write lands on, with per-handle traffic/footprint accounting
    feeding the read-amplification metrics.

A :class:`DeviceBackend` bundles one of each under a registry name;
:func:`build_backend` constructs it from a
:class:`~repro.config.TimingModel`.  The ``pcie_gen3`` backend
reproduces the pre-abstraction model byte for byte (the golden-digest
regression test pins this); ``cxl_lmb`` and ``nvme_fdp`` are the two
fabrics PAPERS.md identifies as moving the paper's trade-offs most.

Both surfaces check their subclasses when the class is created (a
``TypeError`` at import, not a wrong number mid-run): an overridden
contract method keeps the base's positional parameter names — which
pins the *dimension* each argument carries, ``nbytes`` stays bytes —
and no class attribute is a ``list``/``dict``/``set``, which every
instance, and so every simulated system, would share.  A missing
``bulk_transfer_ns``/``byte_read_ns`` is a ``TypeError`` at
instantiation, because :class:`Interconnect` is an ``abc.ABC``.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass, field
from typing import Callable, ClassVar

from repro.config import TimingModel


def _positional_params(method: Callable[..., object]) -> tuple[str, ...]:
    """Positional parameter names after the receiver."""
    params = inspect.signature(method).parameters.values()
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return tuple(param.name for param in params if param.kind in positional)[1:]


class _BackendContract:
    """Class-creation check of a backend surface's subclasses.

    The *contract* is the class that lists this mixin as a direct base
    (:class:`Interconnect` or :class:`BufferPlacement`); its public
    methods are the surface every subclass must keep.
    """

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        contract = next(base for base in cls.__mro__ if _BackendContract in base.__bases__)
        for attr, value in vars(cls).items():
            if attr.startswith("__") and attr.endswith("__"):
                continue
            if isinstance(value, (list, dict, set)):
                raise TypeError(
                    f"{cls.__name__}.{attr} is a mutable class attribute shared by "
                    "every instance of the backend; create it per instance in __init__"
                )
            expected = vars(contract).get(attr)
            if attr.startswith("_") or not (
                inspect.isfunction(expected) and inspect.isfunction(value)
            ):
                continue
            if _positional_params(value) != _positional_params(expected):
                raise TypeError(
                    f"{cls.__name__}.{attr}{inspect.signature(value)} must keep the "
                    f"positional parameters of {contract.__name__}.{attr}"
                    f"{inspect.signature(expected)}; the names carry each argument's unit"
                )


class Interconnect(_BackendContract, abc.ABC):
    """Cost model of the host <-> device transport."""

    #: Registry-facing name of the fabric.
    name: ClassVar[str] = "abstract"
    #: Cache-coherent load/store fabric: byte access needs no BAR page
    #: fault and bulk access needs no DMA mapping setup.
    coherent: ClassVar[bool] = False
    #: Stage name recorded for host-initiated byte reads (the CPU-stall
    #: component): ``"mmio_pull"`` on PCIe, ``"cxl_load"`` on CXL.mem.
    byte_read_stage: ClassVar[str] = "mmio_pull"
    #: Payload granularity of one host-initiated read transaction.
    read_transaction_bytes: ClassVar[int] = 8

    @abc.abstractmethod
    def bulk_transfer_ns(self, nbytes: int) -> float:
        """Bulk (DMA-style / coherent write-stream) transfer cost."""

    @abc.abstractmethod
    def byte_read_ns(self, nbytes: int) -> float:
        """Host-initiated byte read cost (CPU stalled for round trips)."""

    def byte_fault_ns(self) -> float:
        """Fault cost to (re)map the byte-access window before a read."""
        return 0.0

    def per_access_map_ns(self) -> float:
        """Mapping setup paid per access (2B-SSD DMA mode)."""
        return 0.0

    def persistent_map_ns(self) -> float:
        """One-time mapping setup (HMB-style persistent registration)."""
        return 0.0


class BufferPlacement(_BackendContract):
    """Placement-handle policy plus per-handle accounting.

    The default implementation is the conventional single-stream
    device: every write and every fine-grained destination shares
    handle 0, and no per-handle statistics are kept — all hooks are
    O(1) no-ops so the hot paths of the ``pcie_gen3`` backend stay
    byte-identical to the pre-abstraction code.
    """

    name: ClassVar[str] = "unified"

    #: Number of distinct placement handles this policy exposes.
    handles: int = 1
    #: Handle of conventional block writes / unclassified data.
    block_handle: int = 0
    #: Handle of TempBuf staging traffic (shortest-lived data).
    tempbuf_handle: int = 0

    def handle_for_class(self, class_index: int) -> int:
        """Placement handle of a slab class (lifetime segregation)."""
        return 0

    # --- destination staging (host assigns, device consumes) ----------
    def stage_destination(self, dest_addr: int, handle: int) -> None:
        """Host side: remember the handle a miss destination belongs to."""

    def pop_destination(self, dest_addr: int) -> int:
        """Device side: resolve (and forget) a staged destination."""
        return self.block_handle

    # --- accounting hooks ---------------------------------------------
    def record_admission(self, handle: int, nbytes: int) -> None:
        """An item/staging range of ``nbytes`` was placed on ``handle``."""

    def record_read(
        self, handle: int, nbytes: int, *, pages: tuple[int, ...] = ()
    ) -> None:
        """``nbytes`` of fine-grained payload served from ``handle``.

        ``pages`` are the flash page numbers sensed for the range —
        the per-handle flash footprint (FDP reclaim-unit segregation).
        """

    def record_write(self, handle: int, nbytes: int, *, ppn: int | None = None) -> None:
        """``nbytes`` programmed to flash on ``handle`` (page ``ppn``)."""

    def stats(self) -> dict[str, float]:
        """Per-handle metrics for reports (empty: nothing to report)."""
        return {}


class UnifiedPlacement(BufferPlacement):
    """Explicit alias of the default single-handle policy."""


@dataclass(frozen=True)
class DeviceBackend:
    """One named fabric: a transport model plus a placement policy."""

    name: str
    interconnect: Interconnect
    placement: BufferPlacement = field(default_factory=UnifiedPlacement)


#: name -> factory building the backend from a timing model.
BACKENDS: dict[str, Callable[[TimingModel], DeviceBackend]] = {}


def register_backend(
    name: str,
) -> Callable[[Callable[[TimingModel], DeviceBackend]], Callable[[TimingModel], DeviceBackend]]:
    """Decorator registering a backend factory under ``name``."""

    def wrap(factory: Callable[[TimingModel], DeviceBackend]):
        if name in BACKENDS:
            raise ValueError(f"duplicate backend name {name!r}")
        BACKENDS[name] = factory
        return factory

    return wrap


def available_backends() -> list[str]:
    """Names accepted by :func:`build_backend`."""
    return sorted(BACKENDS)


def build_backend(name: str, timing: TimingModel) -> DeviceBackend:
    """Construct a backend by registry name.

    Raises ``KeyError`` naming the known backends on an unknown name,
    mirroring :func:`repro.system.build_system`.
    """
    factory = BACKENDS.get(name)
    if factory is None:
        raise KeyError(
            f"unknown backend {name!r}; choose from {available_backends()}"
        )
    return factory(timing)


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

"""Controller Memory Buffer: controller DRAM exposed through a PCIe BAR.

2B-SSD style byte access stages NAND pages here before the host pulls
the demanded bytes out via MMIO or a freshly mapped DMA (paper
section 2.2).  Modelled as a flat region plus a tiny page directory so
tests can check staging behaviour.  The region is the HMB's lazily
backed, bounds-checked :class:`~repro.ssd.hmb.MemoryRegion`: resident
only where a staged page was written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.ssd.hmb import MemoryRegion


@dataclass
class ControllerMemoryBuffer(MemoryRegion):
    """BAR-exposed controller memory staging area."""

    label: ClassVar[str] = "CMB"

    page_size: int = 4096
    #: ppn currently staged in each CMB page slot (round-robin reuse).
    _staged: dict[int, int] = field(default_factory=dict)
    _next_slot: int = 0

    def __post_init__(self) -> None:
        if self.size < self.page_size:
            raise ValueError("CMB smaller than one page")
        super().__post_init__()

    @property
    def slots(self) -> int:
        return self.size // self.page_size

    def stage_page(self, ppn: int, content: bytes | None) -> int:
        """Stage a NAND page into the next slot; returns the slot's address."""
        slot = self._next_slot
        self._next_slot = (self._next_slot + 1) % self.slots
        addr = slot * self.page_size
        self._staged[slot] = ppn
        if content is not None:
            if len(content) != self.page_size:
                raise ValueError("staged content must be one full page")
            self.write(addr, content)
        return addr

    def staged_ppn(self, slot: int) -> int | None:
        """ppn staged in a slot, if any (diagnostics/tests)."""
        return self._staged.get(slot)


__all__ = ["ControllerMemoryBuffer"]

"""NAND flash array: geometry, timing and (lazy) page contents.

Pages that were never programmed return a deterministic "pre-imaged"
pattern derived from the physical page number.  This lets experiments
pretend multi-GiB files already exist on flash without materializing
gigabytes of Python bytes, while still giving every read a verifiable
payload (tests recompute the expected pattern independently).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from repro.config import NandType, SSDSpec, TimingModel

#: 256-byte rotating pattern; long enough to slice any page alignment.
_PATTERN_PERIOD = 256


@cache
def _pattern_table(page_size: int) -> bytes:
    return bytes(range(_PATTERN_PERIOD)) * (page_size // _PATTERN_PERIOD + 2)


def page_pattern(ppn: int, page_size: int = 4096) -> bytes:
    """Deterministic content of a never-programmed physical page.

    The pattern rotates with the page number so adjacent pages differ
    and intra-page offsets are distinguishable — both properties are
    exercised by the data-integrity tests.
    """
    table = _pattern_table(page_size)
    rotation = (ppn * 97) % _PATTERN_PERIOD
    return table[rotation : rotation + page_size]


@dataclass
class NandTiming:
    """Read/program/erase latencies for one cell type."""

    read_ns: int
    program_ns: int
    erase_ns: int = 3_000_000

    @staticmethod
    def from_model(timing: TimingModel, nand: NandType) -> "NandTiming":
        return NandTiming(
            read_ns=timing.nand_read(nand),
            program_ns=timing.nand_program(nand),
        )


@dataclass
class FlashArray:
    """Physical page store with channel striping.

    Physical pages are striped across channels round-robin (``ppn %
    channels``), the layout real controllers use to parallelize
    sequential reads.  Contents are stored sparsely: only programmed
    pages occupy memory.
    """

    spec: SSDSpec
    timing: NandTiming
    _programmed: dict[int, bytes] = field(default_factory=dict)
    _erased_blocks: set[int] = field(default_factory=set)
    reads: int = 0
    programs: int = 0
    erases: int = 0
    #: Per-block erase counts (wear), for endurance accounting.
    erase_counts: dict[int, int] = field(default_factory=dict)

    @staticmethod
    def create(spec: SSDSpec, timing_model: TimingModel) -> "FlashArray":
        return FlashArray(spec=spec, timing=NandTiming.from_model(timing_model, spec.nand_type))

    # --- geometry -------------------------------------------------------
    @property
    def physical_pages(self) -> int:
        """Addressable physical pages, including over-provisioning.

        ~7% over-provisioning on top of the logical capacity, rounded
        up to whole erase blocks so GC never reclaims a block whose
        tail pages do not exist.
        """
        raw = self.spec.total_pages + self.spec.total_pages // 14
        per_block = self.spec.pages_per_block
        return -(-raw // per_block) * per_block

    def channel_of(self, ppn: int) -> int:
        """Flash channel that owns the given physical page."""
        return ppn % self.spec.channels

    def block_of(self, ppn: int) -> int:
        """Erase block containing the given physical page."""
        return ppn // self.spec.pages_per_block

    # --- operations -------------------------------------------------------
    def read_page(self, ppn: int, *, with_data: bool = True) -> bytes | None:
        """Read a full physical page; returns its content (or None)."""
        self._check_ppn(ppn)
        self.reads += 1
        if not with_data:
            return None
        found = self._programmed.get(ppn)
        if found is not None:
            return found
        return page_pattern(ppn, self.spec.page_size)

    def program_page(self, ppn: int, data: bytes) -> None:
        """Program a full page; NAND forbids in-place overwrite."""
        self._check_ppn(ppn)
        if len(data) != self.spec.page_size:
            raise ValueError(
                f"program requires a full page ({self.spec.page_size} B), got {len(data)} B"
            )
        if ppn in self._programmed and self.block_of(ppn) not in self._erased_blocks:
            raise RuntimeError(f"in-place program of ppn {ppn} without erase")
        self.programs += 1
        self._programmed[ppn] = bytes(data)

    def erase_block(self, block: int) -> None:
        """Erase a block, dropping any programmed pages it contained."""
        if block < 0 or block > self.physical_pages // self.spec.pages_per_block:
            raise ValueError(f"block {block} out of range")
        self.erases += 1
        self.erase_counts[block] = self.erase_counts.get(block, 0) + 1
        start = block * self.spec.pages_per_block
        for ppn in range(start, start + self.spec.pages_per_block):
            self._programmed.pop(ppn, None)
        self._erased_blocks.add(block)

    def read_latency_ns(self) -> int:
        """tR: array sense time for one page."""
        return self.timing.read_ns

    def program_latency_ns(self) -> int:
        return self.timing.program_ns

    def erase_latency_ns(self) -> int:
        return self.timing.erase_ns

    def _check_ppn(self, ppn: int) -> None:
        if ppn < 0 or ppn >= self.physical_pages:
            raise ValueError(f"ppn {ppn} out of range [0, {self.physical_pages})")


__all__ = ["FlashArray", "NandTiming", "page_pattern"]

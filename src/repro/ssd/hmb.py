"""Host Memory Buffer: host DRAM lent to the device at initialization.

Pipette places the fine-grained read cache's Data/Info/TempBuf areas
inside the HMB so the device can DMA extracted byte ranges directly to
their final destinations (paper section 3.1.1).  The buffer is modelled
as a flat byte-addressable region; address management is left to the
cache layers above.

The region is provisioned address space, not filled memory: it is an
anonymous private mapping, so the OS supplies a zeroed page the first
time one is touched.  Construction is O(1) and resident memory equals
the pages actually written, which is none when payloads are not
transferred.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field


@dataclass
class HostMemoryBuffer:
    """Flat host-resident region addressable by both host and device."""

    size: int
    _data: mmap.mmap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("HMB size must be positive")
        # Private, so a forked process gets copy-on-write pages as it
        # would with a bytearray.
        self._data = mmap.mmap(-1, self.size, flags=mmap.MAP_PRIVATE)

    def write(self, addr: int, payload: bytes) -> None:
        """Store ``payload`` at ``addr`` (device DMA or host store)."""
        self._check(addr, len(payload))
        self._data[addr : addr + len(payload)] = payload

    def read(self, addr: int, length: int) -> bytes:
        """Load ``length`` bytes from ``addr`` (an immutable copy)."""
        self._check(addr, length)
        return self._data[addr : addr + length]

    def _check(self, addr: int, length: int) -> None:
        if length < 0:
            raise ValueError("negative length")
        if addr < 0 or addr + length > self.size:
            raise ValueError(
                f"access [{addr}, {addr + length}) outside HMB of {self.size} bytes"
            )


__all__ = ["HostMemoryBuffer"]

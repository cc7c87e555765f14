"""The Info Area: host/device shared descriptor ring (paper Figure 3).

The host-side Constructor appends one record per fine-grained range —
destination start address, byte offset within the flash page, byte
length — and bumps the tail; the device-side Read Engine consumes
records while reading flash pages and bumps the head.  Because the ring
lives in the HMB, both sides see it without extra round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class _InfoFields(NamedTuple):
    dest_addr: int
    byte_offset: int
    byte_length: int


class InfoRecord(_InfoFields):
    """One fine-grained transfer descriptor (immutable, checked at construction)."""

    __slots__ = ()

    def __new__(cls, dest_addr: int, byte_offset: int, byte_length: int) -> "InfoRecord":
        if dest_addr < 0 or byte_offset < 0 or byte_length <= 0:
            raise ValueError(
                f"invalid info record (dest_addr={dest_addr}, byte_offset={byte_offset}, "
                f"byte_length={byte_length})"
            )
        return tuple.__new__(cls, (dest_addr, byte_offset, byte_length))


@dataclass
class InfoArea:
    """Single-producer/single-consumer descriptor ring."""

    capacity: int
    head: int = 0  # device-advanced: next record to consume
    tail: int = 0  # host-advanced: next free slot
    _slots: list[InfoRecord | None] = field(default_factory=list)
    produced: int = 0
    consumed: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("info area needs at least 2 entries")
        if not self._slots:
            self._slots = [None] * self.capacity

    def __len__(self) -> int:
        return (self.tail - self.head) % self.capacity

    @property
    def full(self) -> bool:
        return (self.tail + 1) % self.capacity == self.head

    @property
    def record_bytes(self) -> int:
        """Wire size of one record (addr + offset + length, 8+2+2)."""
        return 12

    # --- host side -----------------------------------------------------------
    def push(self, record: InfoRecord) -> None:
        """Host: append one record and advance the tail (step 3a)."""
        if self.full:
            raise BufferError("Info Area full; host must wait for the device")
        self._slots[self.tail] = record
        self.tail = (self.tail + 1) % self.capacity
        self.produced += 1

    # --- device side ------------------------------------------------------------
    def consume(self) -> InfoRecord:
        """Device: digest the next record and advance the head."""
        if not len(self):
            raise BufferError("Info Area empty; device has nothing to consume")
        record = self._slots[self.head]
        self._slots[self.head] = None
        self.head = (self.head + 1) % self.capacity
        self.consumed += 1
        assert record is not None
        return record

    @property
    def in_flight(self) -> int:
        return self.produced - self.consumed


__all__ = ["InfoArea", "InfoRecord"]

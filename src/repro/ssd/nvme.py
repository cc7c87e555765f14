"""Minimal NVMe command layer: opcodes, commands, SQ/CQ ring pairs.

The simulator executes commands synchronously (virtual time), but the
queue structures are real rings with head/tail arithmetic and command
identifier allocation, exercised by the device's block reads and the
tests.
The command set is NVMe 1.2 plus the vendor-specific fine-grained read
opcode Pipette adds (paper section 4.1: "We also extend the NVMe
command set to support fine-grained reads").
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable


class NvmeOpcode(enum.IntEnum):
    """NVM command set opcodes used by the simulator."""

    FLUSH = 0x00
    WRITE = 0x01
    READ = 0x02
    #: Vendor-specific: Pipette reconstructed fine-grained read.
    FINE_GRAINED_READ = 0xC2
    #: Admin (modelled in the same queue for simplicity): set HMB.
    SET_FEATURES_HMB = 0x0D


@dataclass(slots=True)
class FineReadRange:
    """One byte range of a reconstructed fine-grained read command."""

    lba: int
    offset_in_page: int
    length: int
    #: Destination address inside the HMB (from the Info Area record).
    dest_addr: int


@dataclass(slots=True)
class NvmeCommand:
    """A submission-queue entry."""

    opcode: NvmeOpcode
    cid: int = -1
    nsid: int = 1
    #: Starting logical block (page-granular LBAs in this model).
    lba: int = 0
    #: Number of logical blocks for block commands.
    nlb: int = 0
    #: Byte ranges for FINE_GRAINED_READ commands.
    ranges: list[FineReadRange] = field(default_factory=list)


@dataclass(slots=True)
class NvmeCompletion:
    """A completion-queue entry."""

    cid: int
    status: int = 0
    result: object = None

    @property
    def success(self) -> bool:
        return self.status == 0


class _Ring:
    """Fixed-capacity circular buffer with head/tail indices."""

    def __init__(self, depth: int) -> None:
        if depth < 2 or depth & (depth - 1):
            raise ValueError("queue depth must be a power of two >= 2")
        self.depth = depth
        self._slots: list[object | None] = [None] * depth
        self.head = 0
        self.tail = 0

    def __len__(self) -> int:
        return (self.tail - self.head) % self.depth

    @property
    def full(self) -> bool:
        return len(self) == self.depth - 1

    def push(self, entry: object) -> int:
        if self.full:
            raise RuntimeError("queue full")
        slot = self.tail
        self._slots[slot] = entry
        self.tail = (self.tail + 1) % self.depth
        return slot

    def pop(self) -> object:
        if not len(self):
            raise RuntimeError("queue empty")
        entry = self._slots[self.head]
        self._slots[self.head] = None
        self.head = (self.head + 1) % self.depth
        return entry


class SubmissionQueue(_Ring):
    """Host-written ring of :class:`NvmeCommand`."""


class CompletionQueue(_Ring):
    """Device-written ring of :class:`NvmeCompletion`."""


class NvmeQueuePair:
    """An SQ/CQ pair bound to an executor (the controller).

    ``submit`` rings the doorbell: the executor runs the command in
    virtual time and posts a completion, which ``reap`` consumes.
    """

    def __init__(
        self,
        executor: Callable[[NvmeCommand], NvmeCompletion],
        depth: int = 256,
    ) -> None:
        self.sq = SubmissionQueue(depth)
        self.cq = CompletionQueue(depth)
        self._executor = executor
        self._cids = itertools.count()
        self.submitted = 0
        self.completed = 0

    def submit(self, command: NvmeCommand) -> NvmeCompletion:
        """Submit, execute and reap one command (synchronous model)."""
        command.cid = next(self._cids) & 0xFFFF
        self.sq.push(command)
        self.submitted += 1
        pending = self.sq.pop()
        assert pending is command
        completion = self._executor(command)
        completion.cid = command.cid
        self.cq.push(completion)
        reaped = self.cq.pop()
        assert reaped is completion
        self.completed += 1
        return completion


__all__ = [
    "CompletionQueue",
    "FineReadRange",
    "NvmeCommand",
    "NvmeCompletion",
    "NvmeOpcode",
    "NvmeQueuePair",
    "SubmissionQueue",
]

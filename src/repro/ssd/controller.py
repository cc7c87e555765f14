"""SSD controller: read buffer, NAND scheduling, command execution.

The controller owns the primitives every read path composes:

- ``sense_page``: translate an LBA, occupy the owning flash channel for
  tR plus the ONFI bus transfer, and land the page in the read buffer
  (``sense_ppn`` does the same for a caller that already holds the
  physical page, so each sensed page costs one ``translate``);
- ``record_array_phase``: the serial QD-1 array phase of the pages
  one command sensed;
- :class:`ByteRead`: one command's byte-granular read, the sense and
  slice every byte path shares (Pipette's Read Engine, the CMB
  variants, Pipette without cache); each keeps only its transport;
- ``block_page_extra_ns``: the device-side serialization penalty paid
  only by full-page block reads (see DESIGN.md section 5);
- ``execute``: the NVMe dispatch used by the queue pair.

The fine-grained Read Engine (:mod:`repro.core.engine`) is installed as
a firmware extension and handles ``FINE_GRAINED_READ`` commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

from repro.config import SimConfig
from repro.sim.trace import Tracer
from repro.ssd.backends.base import BufferPlacement
from repro.ssd.cmb import ControllerMemoryBuffer
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.nand import FlashArray
from repro.ssd.nvme import NvmeCommand, NvmeCompletion, NvmeOpcode


class FirmwareExtension(Protocol):
    """Interface of an installed vendor-command handler."""

    def handle(self, command: NvmeCommand) -> NvmeCompletion: ...


@dataclass(slots=True)
class ReadBufferSlot:
    lba: int
    content: bytes | None


@dataclass
class SSDController:
    """Device-side execution engine."""

    config: SimConfig
    nand: FlashArray
    ftl: FlashTranslationLayer
    #: Shared stage tracer; channel occupancy is recorded here and
    #: folded into the device's resource ledger.
    tracer: Tracer
    #: Backend placement policy; writes are tagged with its handles
    #: (conventional stream unless an FDP-style backend segregates).
    placement: BufferPlacement | None = None
    read_buffer: list[ReadBufferSlot] = field(default_factory=list)
    _extensions: dict[NvmeOpcode, FirmwareExtension] = field(default_factory=dict)
    pages_sensed: int = 0
    read_buffer_hits: int = 0
    #: Extra read attempts caused by injected transient faults.
    read_retries: int = 0

    def __post_init__(self) -> None:
        if self.placement is None:
            self.placement = BufferPlacement()

    # --- primitives -----------------------------------------------------
    def sense_page(self, lba: int) -> tuple[bytes | None, float]:
        """Read one logical page from NAND into the read buffer.

        Returns ``(content, nand_ns)`` where ``nand_ns`` is the array
        occupancy charged to the page's channel (tR + bus transfer).
        """
        return self.sense_ppn(lba, self.ftl.translate(lba))

    def sense_ppn(self, lba: int, ppn: int) -> tuple[bytes | None, float]:
        """``sense_page`` for a caller that already translated ``lba``.

        ``ppn`` must be ``ftl.translate(lba)``; callers that also need
        the physical page (its channel, CMB staging) translate once.
        """
        if self.config.ssd.read_buffer_hits:
            for slot in reversed(self.read_buffer):
                if slot.lba == lba:
                    # Buffer hit: only the channel bus transfer, no tR.
                    bus_ns = self.config.timing.channel_xfer_page_ns
                    self.tracer.channel(self.nand.channel_of(ppn), "nand_bus", bus_ns)
                    self.read_buffer_hits += 1
                    return slot.content, float(bus_ns)
        attempts = 1
        if self.config.faults.enabled:
            # May raise NandReadError after exhausting retries.
            attempts = self.config.faults.attempts_needed(ppn)
            self.read_retries += attempts - 1
        content = self.nand.read_page(ppn, with_data=self.config.transfer_data)
        nand_ns = (
            attempts * self.nand.read_latency_ns()
            + self.config.timing.channel_xfer_page_ns
        )
        self.tracer.channel(self.nand.channel_of(ppn), "tR", nand_ns)
        self._buffer_insert(lba, content)
        self.pages_sensed += 1
        return content, nand_ns

    def record_array_phase(self, per_page_ns: list[float]) -> None:
        """Record the QD-1 array phase of one command's sensed pages.

        Pages on distinct channels overlap, so the phase takes
        ``ceil(pages/channels)`` serial page times: a derived stage on
        top of the per-page channel charges ``sense_page`` recorded.
        No pages, no stage.
        """
        if per_page_ns:
            rounds = math.ceil(len(per_page_ns) / self.config.ssd.channels)
            self.tracer.serial_nand("nand_array", rounds * max(per_page_ns))

    def block_page_extra_ns(self) -> float:
        """Device-side penalty for a full-page block read.

        Charged on top of ``sense_page``; models the platform's
        inability to read a striped page from parallel channels
        synchronously (paper section 4.2 discussion of Fig. 8).
        """
        return float(self.config.timing.block_page_penalty_ns)

    def program_page(self, lba: int, data: bytes) -> float:
        """Write one page through the FTL; returns NAND occupancy (ns)."""
        ppn_before = self.ftl.translate(lba)
        self.ftl.write(lba, data)
        ppn_after = self.ftl.translate(lba)
        assert ppn_after != ppn_before or self.nand.spec.pages_per_block == 1
        nand_ns = self.nand.program_latency_ns() + self.config.timing.channel_xfer_page_ns
        self.tracer.channel(self.nand.channel_of(ppn_after), "program", nand_ns)
        self.placement.record_write(
            self.placement.block_handle, self.config.ssd.page_size, ppn=ppn_after
        )
        self._buffer_invalidate(lba)
        return nand_ns

    def _buffer_insert(self, lba: int, content: bytes | None) -> None:
        self.read_buffer.append(ReadBufferSlot(lba, content))
        if len(self.read_buffer) > self.config.ssd.read_buffer_pages:
            self.read_buffer.pop(0)

    def _buffer_invalidate(self, lba: int) -> None:
        self.read_buffer = [slot for slot in self.read_buffer if slot.lba != lba]

    # --- firmware extensions ---------------------------------------------
    def install_extension(self, opcode: NvmeOpcode, extension: FirmwareExtension) -> None:
        """Install a vendor-command handler (Pipette's Read Engine)."""
        self._extensions[opcode] = extension

    # --- NVMe dispatch ----------------------------------------------------
    def execute(self, command: NvmeCommand) -> NvmeCompletion:
        """Execute one NVMe command; returns its completion."""
        if command.opcode == NvmeOpcode.READ:
            return self._execute_block_read(command)
        if command.opcode == NvmeOpcode.WRITE:
            return self._execute_block_write(command)
        if command.opcode == NvmeOpcode.FLUSH:
            return NvmeCompletion(cid=command.cid)
        extension = self._extensions.get(command.opcode)
        if extension is not None:
            return extension.handle(command)
        return NvmeCompletion(cid=command.cid, status=0x01)  # invalid opcode

    def _execute_block_read(self, command: NvmeCommand) -> NvmeCompletion:
        pages: list[bytes | None] = []
        nand_ns_each: list[float] = []
        for lba in range(command.lba, command.lba + command.nlb):
            ppn = self.ftl.translate(lba)
            content, nand_ns = self.sense_ppn(lba, ppn)
            penalty = self.block_page_extra_ns()
            self.tracer.channel(self.nand.channel_of(ppn), "block_penalty", penalty)
            pages.append(content)
            nand_ns_each.append(nand_ns + penalty)
        return NvmeCompletion(cid=command.cid, result=(pages, nand_ns_each))

    def _execute_block_write(self, command: NvmeCommand) -> NvmeCompletion:
        # The command carries no payload: SSDDevice.block_write calls
        # program_page directly, so a WRITE here is only exercised by
        # protocol-level tests.
        nand_ns_total = 0.0
        for lba in range(command.lba, command.lba + command.nlb):
            page = self.nand.read_page(self.ftl.translate(lba))
            assert page is not None
            nand_ns_total += self.program_page(lba, page)
        return NvmeCompletion(cid=command.cid, result=nand_ns_total)


class ByteRead:
    """One command's byte-granular read out of NAND.

    ``extract`` senses each page a piece spans and slices out the
    piece's bytes; ``finish`` records the command's array phase.  A
    page is sensed at most once per command, in first-use order: the
    read buffer holds it for the command's duration, so it pays tR
    once however many pieces it serves.  With ``cmb`` each newly
    sensed page is also staged there (2B-SSD style byte access).
    """

    __slots__ = ("controller", "cmb", "_pages", "_ppns", "_nand_ns")

    def __init__(
        self, controller: SSDController, cmb: ControllerMemoryBuffer | None = None
    ) -> None:
        self.controller = controller
        self.cmb = cmb
        self._pages: dict[int, bytes | None] = {}
        self._ppns: dict[int, int] = {}
        #: Array occupancy of each sensed page, in sensing order.
        self._nand_ns: list[float] = []

    def extract(
        self, lba: int, offset_in_page: int, length: int
    ) -> tuple[bytes | None, list[int]]:
        """Sense the piece's pages; returns ``(payload, ppns)``.

        ``payload`` is ``None`` when ``transfer_data`` is off.
        """
        controller = self.controller
        config = controller.config
        pages = self._pages
        known = self._ppns
        end = offset_in_page + length
        contents: list[bytes | None] = []
        ppns: list[int] = []
        for page_lba in range(lba, lba + -(-end // config.ssd.page_size)):
            ppn = known.get(page_lba)
            if ppn is None:
                ppn = controller.ftl.translate(page_lba)
                content, nand_ns = controller.sense_ppn(page_lba, ppn)
                known[page_lba] = ppn
                pages[page_lba] = content
                self._nand_ns.append(nand_ns)
                if self.cmb is not None:
                    self.cmb.stage_page(ppn, content)
            ppns.append(ppn)
            contents.append(pages[page_lba])
        if not config.transfer_data:
            return None, ppns
        joined = b"".join(page or b"" for page in contents)
        return joined[offset_in_page:end], ppns

    def finish(self) -> None:
        """Record the command's serial array phase (once per command)."""
        self.controller.record_array_phase(self._nand_ns)


__all__ = ["ByteRead", "FirmwareExtension", "ReadBufferSlot", "SSDController"]

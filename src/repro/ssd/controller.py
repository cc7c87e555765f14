"""SSD controller: NAND scheduling and page senses.

The controller owns the primitives every read path composes:

- ``sense_ppn``: read one already translated page and occupy its
  flash channel for tR plus the ONFI bus transfer (callers translate
  each sensed page once);
- ``record_array_phase``: the serial QD-1 array phase of the pages
  one command sensed;
- :class:`ByteRead`: one command's byte-granular read, the sense and
  slice every byte path shares (Pipette's Read Engine, the CMB
  variants, Pipette without cache); each keeps only its transport;
- ``block_sense``: a block read's full-page senses, each paying the
  device-side serialization penalty only full-page block reads pay
  (see DESIGN.md section 5).

Callers invoke these directly: the block path through
:meth:`repro.ssd.device.SSDDevice.block_read`, the fine-grained path
through Pipette's Read Engine (:mod:`repro.core.engine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.config import SimConfig
from repro.sim.trace import Tracer
from repro.ssd.fabric import BufferPlacement
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.nand import FlashArray


@dataclass
class SSDController:
    """Device-side flash scheduling."""

    config: SimConfig
    nand: FlashArray
    ftl: FlashTranslationLayer
    #: Shared stage tracer; channel occupancy is recorded here and
    #: folded into the device's resource ledger.
    tracer: Tracer
    #: Backend placement policy; writes are tagged with its handles
    #: (conventional stream unless an FDP-style backend segregates).
    placement: BufferPlacement
    pages_sensed: int = 0
    #: Extra read attempts caused by injected transient faults.
    read_retries: int = 0

    # --- primitives -----------------------------------------------------
    def sense_ppn(self, lba: int, ppn: int) -> tuple[bytes | None, float]:
        """Read logical page ``lba`` from NAND, at ``ppn = ftl.translate(lba)``.

        Returns ``(content, nand_ns)`` where ``nand_ns`` is the array
        occupancy charged to the page's channel (tR + bus transfer).
        """
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
        self.pages_sensed += 1
        return content, nand_ns

    def record_array_phase(self, per_page_ns: list[float]) -> None:
        """Record the QD-1 array phase of one command's sensed pages.

        Pages on distinct channels overlap, so the phase takes
        ``ceil(pages/channels)`` serial page times: a derived stage on
        top of the per-page channel charges ``sense_ppn`` recorded.
        No pages, no stage.
        """
        if per_page_ns:
            rounds = math.ceil(len(per_page_ns) / self.config.ssd.channels)
            self.tracer.serial_nand("nand_array", rounds * max(per_page_ns))

    def block_sense(self, lbas: Iterable[int]) -> tuple[list[bytes | None], list[float]]:
        """Sense full pages for a block read, in the order given.

        Returns ``(pages, nand_ns_each)``: each page's content and its
        array occupancy including the block-read penalty, which is
        also charged to the page's channel.  The penalty models the
        platform's inability to read a striped page from parallel
        channels synchronously (paper section 4.2 discussion of Fig. 8).
        """
        pages: list[bytes | None] = []
        nand_ns_each: list[float] = []
        penalty = float(self.config.timing.block_page_penalty_ns)
        for lba in lbas:
            ppn = self.ftl.translate(lba)
            content, nand_ns = self.sense_ppn(lba, ppn)
            self.tracer.channel(self.nand.channel_of(ppn), "block_penalty", penalty)
            pages.append(content)
            nand_ns_each.append(nand_ns + penalty)
        return pages, nand_ns_each

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
        return nand_ns


class ByteRead:
    """One command's byte-granular read out of NAND.

    ``extract`` senses each page a piece spans and slices out the
    piece's bytes; ``finish`` records the command's array phase.  A
    page is sensed at most once per command, in first-use order: the
    controller holds it for the command's duration, so it pays tR
    once however many pieces it serves.
    """

    __slots__ = ("controller", "_pages", "_ppns", "_nand_ns")

    def __init__(self, controller: SSDController) -> None:
        self.controller = controller
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
            ppns.append(ppn)
            contents.append(pages[page_lba])
        if not config.transfer_data:
            return None, ppns
        joined = b"".join(page or b"" for page in contents)
        return joined[offset_in_page:end], ppns

    def finish(self) -> None:
        """Record the command's serial array phase (once per command)."""
        self.controller.record_array_phase(self._nand_ns)


__all__ = ["ByteRead", "SSDController"]

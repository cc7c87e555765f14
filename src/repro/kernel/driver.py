"""NVMe driver model: block requests -> NVMe commands -> device.

The driver is deliberately thin — its host-CPU cost is part of
``TimingModel.block_layer_ns``, and :meth:`SSDDevice.block_read` itself
pushes real NVMe READ commands through the queue pair, so protocol
behaviour (cid allocation, rings, completions) is exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.block_layer import BlockRequest
from repro.ssd.device import SSDDevice


@dataclass
class NvmeDriver:
    """Submits merged block requests to the device."""

    device: SSDDevice

    @property
    def commands_issued(self) -> int:
        return self.device.queue.submitted

    @property
    def fabric(self) -> str:
        """Name of the interconnect backend the device sits on."""
        return self.device.backend.name

    @property
    def premaps_buffers(self) -> bool:
        """Whether block I/O buffers need (pre-established) DMA mappings.

        Block-path PRP buffers are premapped by the driver on PCIe; a
        coherent fabric (``cxl_lmb``) has no mappings at all.  Either
        way the cost is off the per-request path, which is why
        ``read_pages``/``write_pages`` charge no mapping stage here.
        """
        return not self.device.backend.interconnect.coherent

    def read_pages(
        self,
        requests: list[BlockRequest],
        *,
        background_lbas: list[int] | None = None,
    ) -> dict[int, bytes | None]:
        """Issue reads; returns the pages by lba."""
        demanded: list[int] = []
        for request in requests:
            demanded.extend(range(request.lba, request.lba + request.count))
        return self.device.block_read(demanded, background_lbas=background_lbas)

    def write_pages(self, writes: list[tuple[int, bytes]]) -> None:
        """Write full pages."""
        self.device.block_write(writes)


__all__ = ["NvmeDriver"]

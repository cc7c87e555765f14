"""Simulated NVMe SSD: NAND array, FTL, link, HMB and controller."""

from repro.ssd.device import SSDDevice
from repro.ssd.faults import FaultModel, NandReadError
from repro.ssd.ftl import FlashTranslationLayer, WearReport
from repro.ssd.hmb import HostMemoryBuffer
from repro.ssd.nand import FlashArray, page_pattern
from repro.ssd.pcie import PcieLink

__all__ = [
    "FaultModel",
    "FlashArray",
    "FlashTranslationLayer",
    "HostMemoryBuffer",
    "NandReadError",
    "PcieLink",
    "SSDDevice",
    "WearReport",
    "page_pattern",
]

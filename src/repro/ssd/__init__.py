"""Simulated NVMe SSD: NAND array, FTL, interconnect and controller."""

from repro.ssd.admin import AdminState, IdentifyController
from repro.ssd.cmb import ControllerMemoryBuffer
from repro.ssd.device import SSDDevice
from repro.ssd.dma import DmaEngine
from repro.ssd.faults import FaultModel, NandReadError
from repro.ssd.ftl import FlashTranslationLayer, WearReport
from repro.ssd.hmb import HostMemoryBuffer
from repro.ssd.mmio import MmioWindow
from repro.ssd.nand import FlashArray, page_pattern
from repro.ssd.pcie import PcieLink

__all__ = [
    "AdminState",
    "ControllerMemoryBuffer",
    "DmaEngine",
    "FaultModel",
    "FlashArray",
    "FlashTranslationLayer",
    "HostMemoryBuffer",
    "IdentifyController",
    "MmioWindow",
    "NandReadError",
    "PcieLink",
    "SSDDevice",
    "WearReport",
    "page_pattern",
]

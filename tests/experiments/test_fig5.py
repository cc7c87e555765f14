"""Figure 5: the platform rows no simulation reads."""

from repro.config import GIB, SimConfig
from repro.experiments import fig5


def test_fig5_platform_constants():
    assert fig5.HOST_INTERFACE == "PCIe Gen3 x4"
    assert SimConfig().backend == "pcie_gen3"
    assert fig5.PROTOCOL == "NVMe 1.2"
    assert fig5.WAYS == 8
    assert fig5.CORES == 2
    assert fig5.MAX_DDR_BYTES == 4 * GIB


def test_fig5_report_lists_every_published_row():
    report = fig5.run().report
    for item in fig5.PAPER_SPEC:
        assert item in report
    assert "PCIe Gen3 x4" in report and "4GiB" in report

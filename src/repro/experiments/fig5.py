"""Figure 5: the hardware prototype specification.

The paper's Figure 5 is the YS9203 platform's spec table; this
reproduction encodes the rows the model reads as
:class:`repro.config.SSDSpec` defaults and the rest as constants here.
The "experiment" renders the live configuration next to the published
values so any drift in defaults is immediately visible (also enforced
by ``tests/ssd/test_nand.py::test_fig5_spec_defaults`` and
``tests/experiments/test_fig5.py``).
"""

from __future__ import annotations

from repro.analysis.metrics import ExperimentOutcome
from repro.analysis.report import text_table
from repro.config import GIB, MIB, SSDSpec
from repro.experiments.scale import ExperimentScale, get_scale

TITLE = "Fig. 5: Hardware prototype specification"

#: Figure 5 rows no simulation reads.  The host interface is the
#: default ``pcie_gen3`` fabric (:mod:`repro.ssd.fabric`).
HOST_INTERFACE = "PCIe Gen3 x4"
PROTOCOL = "NVMe 1.2"
WAYS = 8
CORES = 2
MAX_DDR_BYTES = 4 * GIB

#: The published Figure 5 rows.
PAPER_SPEC = {
    "Host Interface": "PCIe Gen.3 x 4",
    "Protocol": "NVMe 1.2",
    "Channels": "8",
    "Ways": "8",
    "Cores": "2",
    "Storage Medium": "SLC/MLC/TLC NAND flash",
    "Mapping Region": "64MB",
    "Max DDR size": "4GB",
    "Module Capacity": "477GB",
}


def run(scale: ExperimentScale | None = None) -> ExperimentOutcome:
    scale = scale or get_scale()
    spec = SSDSpec()
    modelled = {
        "Host Interface": HOST_INTERFACE,
        "Protocol": PROTOCOL,
        "Channels": str(spec.channels),
        "Ways": str(WAYS),
        "Cores": str(CORES),
        "Storage Medium": f"{spec.nand_type.value.upper()} (SLC/MLC/TLC supported)",
        "Mapping Region": f"{spec.mapping_region_bytes // MIB}MiB",
        "Max DDR size": f"{MAX_DDR_BYTES // GIB}GiB",
        "Module Capacity": f"{spec.capacity_bytes / 1e9:.0f}GB",
    }
    rows = [
        [item, PAPER_SPEC[item], modelled[item]] for item in PAPER_SPEC
    ]
    report = text_table(["Item", "paper", "modelled default"], rows, title=TITLE)
    return ExperimentOutcome(
        experiment="fig5", title=TITLE, comparisons=[], report=report
    )


def main() -> None:
    print(run().report)


if __name__ == "__main__":
    main()

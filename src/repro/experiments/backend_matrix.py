"""Backend matrix: every evaluated system x interconnect backend.

Re-runs the Fig. 8 request-size sweep on each fabric
(:mod:`repro.ssd.fabric`) and reports how the paper's central
trade-off — the MMIO-vs-DMA crossover, where a per-request DMA-style
pull becomes cheaper than host-initiated byte loads — moves with the
fabric.  On PCIe Gen3 x4 the crossover sits near 1 KiB (8 B non-posted
loads vs a ~23 us per-access mapping); on a coherent CXL.mem buffer
both the mapping cost and the tiny transaction granularity disappear,
collapsing the crossover to the smallest request sizes.  ``nvme_fdp``
keeps the PCIe transport (identical latencies) and adds per-handle
placement segregation, so its column doubles as a placement-neutrality
check.

Usage::

    pipette-repro backend-matrix --scale small
    python -m repro.experiments.backend_matrix --smoke   # CI smoke job
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.metrics import ExperimentOutcome, SYSTEM_ORDER, WorkloadComparison
from repro.analysis.report import latency_table
from repro.experiments.runner import run_trace_on
from repro.experiments.scale import ExperimentScale, get_scale
from repro.ssd.fabric import available_backends
from repro.workloads.synthetic import SyntheticConfig, size_sweep_trace

TITLE = "Backend matrix: mean read latency by system x interconnect backend"

#: The fabric pair whose crossover the paper anchors (section 2.2).
MMIO_SYSTEM = "2b-ssd-mmio"
DMA_SYSTEM = "2b-ssd-dma"

SIZES = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
#: Reduced sweep for the CI smoke job: still spans the crossover.
SMOKE_SIZES = [8, 64, 512, 4096]


def crossover_bytes(
    latencies_us: dict[str, dict[int, float]], sizes: list[int]
) -> int | None:
    """Smallest swept size at which the DMA mode beats the MMIO mode.

    Below the returned size MMIO is faster (per-byte round trips beat
    the fixed mapping/setup cost); at and above it the bulk transfer
    wins.  ``None`` means DMA never won within the sweep.
    """
    for size in sizes:
        if latencies_us[DMA_SYSTEM][size] <= latencies_us[MMIO_SYSTEM][size]:
            return size
    return None


def run(
    scale: ExperimentScale | None = None,
    *,
    backends: list[str] | None = None,
    sizes: list[int] | None = None,
) -> ExperimentOutcome:
    scale = scale or get_scale()
    backends = list(backends or available_backends())
    # Baseline fabric first so its table anchors the report.
    backends.sort(key=lambda name: (name != "pcie_gen3", name))
    sizes = list(sizes or SIZES)
    base_config = scale.sim_config()

    comparisons: list[WorkloadComparison] = []
    latencies_all: dict[str, dict[str, dict[int, float]]] = {}
    crossovers: dict[str, int | None] = {}
    tables: list[str] = []
    for backend in backends:
        config = base_config.scaled(backend=backend)
        latencies_us: dict[str, dict[int, float]] = {
            name: {} for name in SYSTEM_ORDER
        }
        for size in sizes:
            base = SyntheticConfig(
                workload="E",
                distribution="uniform",
                requests=scale.sweep_requests,
                file_size=scale.synthetic_file_bytes,
            )
            trace = size_sweep_trace(base, size)
            results = {
                name: run_trace_on(name, trace, config) for name in SYSTEM_ORDER
            }
            for name, result in results.items():
                latencies_us[name][size] = result.mean_latency_ns / 1_000.0
            comparisons.append(
                WorkloadComparison(workload=f"{backend}/{size}B", results=results)
            )
        latencies_all[backend] = latencies_us
        crossovers[backend] = crossover_bytes(latencies_us, sizes)
        tables.append(
            latency_table(
                sizes,
                latencies_us,
                f"Mean read latency (us) on backend '{backend}' [scale={scale.name}]",
            )
        )

    summary = [TITLE, ""]
    reference = crossovers.get("pcie_gen3")
    for backend in backends:
        cross = crossovers[backend]
        shown = f"{cross} B" if cross is not None else f"> {sizes[-1]} B (MMIO wins throughout)"
        shift = ""
        if backend != "pcie_gen3" and reference is not None and cross is not None:
            shift = f"  (shift vs pcie_gen3: {cross - reference:+d} B)"
        summary.append(f"  {backend:10s}  MMIO-vs-DMA crossover: {shown}{shift}")
    report = "\n".join(summary) + "\n\n" + "\n\n".join(tables)

    return ExperimentOutcome(
        experiment="backend-matrix",
        title=TITLE,
        comparisons=comparisons,
        report=report,
        extra={
            "backends": backends,
            "sizes": sizes,
            "crossover_bytes": crossovers,
            "latencies_us": latencies_all,
        },
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="backend-matrix",
        description="Sweep every system x interconnect backend and report "
        "the MMIO-vs-DMA crossover per fabric.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: tiny scale, reduced size sweep",
    )
    parser.add_argument(
        "--scale",
        default=None,
        help="scaling preset (ignored with --smoke; default: $REPRO_SCALE)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        outcome = run(get_scale("tiny"), sizes=SMOKE_SIZES)
    else:
        outcome = run(get_scale(args.scale))
    print(outcome.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

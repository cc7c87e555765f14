"""Command-line entry point: regenerate any or all paper artifacts.

Usage::

    pipette-repro --list
    pipette-repro fig6 table2 --scale small
    pipette-repro all
    python -m repro.experiments.cli fig8
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.experiments import (
    backend_matrix,
    cluster,
    compare,
    fig1,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    multiseed,
    multitenant,
    qd_sweep,
    sensitivity,
    serving,
    table2,
    table3,
    table4,
    validate,
)
from repro.experiments.scale import SCALES, get_scale

EXPERIMENTS = {
    "fig1": fig1.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "validate": validate.run,
    "compare": compare.run,
    "sensitivity": sensitivity.run,
    "qd-sweep": qd_sweep.run,
    "stability": multiseed.run,
    "multitenant": multitenant.run,
    "serving": serving.run,
    "backend-matrix": backend_matrix.run,
    "cluster": cluster.run,
}

#: Experiments whose ``run`` takes ``perturb=`` (the event-loop ones).
PERTURBABLE = {"serving", "cluster"}

#: Order that reuses memoized suites (synthetic uniform/zipfian, apps).
ALL_ORDER = [
    "fig5",
    "fig6",
    "table2",
    "fig7",
    "table3",
    "fig8",
    "fig1",
    "fig9",
    "table4",
    "validate",
    "compare",
    "sensitivity",
    "qd-sweep",
    "stability",
    "multitenant",
    "serving",
    "backend-matrix",
    "cluster",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pipette-repro",
        description="Reproduce the tables and figures of Pipette (DAC'22).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids (fig1 fig6 fig7 fig8 fig9 table2 table3 table4) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="scaling preset (default: $REPRO_SCALE or 'default')",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write <DIR>/<experiment>.csv and .json result exports",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        default=None,
        help="append every rendered report to FILE as well as stdout",
    )
    parser.add_argument(
        "--perturb",
        action="store_true",
        help="add the tie-break perturbation pass to the serving and "
        "cluster experiments",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in ALL_ORDER:
            print(name)
        return 0

    requested = args.experiments or ["all"]
    if requested == ["all"] or "all" in requested:
        requested = ALL_ORDER
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    scale = get_scale(args.scale)
    report_chunks: list[str] = []
    for name in requested:
        # Wall-clock here is progress reporting for the human running
        # the CLI; no simulated result depends on it.
        started = time.time()  # simlint: allow[virtual-time-purity]
        if args.perturb and name in PERTURBABLE:
            outcome = EXPERIMENTS[name](scale, perturb=True)
        else:
            outcome = EXPERIMENTS[name](scale)
        elapsed = time.time() - started  # simlint: allow[virtual-time-purity]
        print(outcome.report)
        print(f"[{name} done in {elapsed:.1f}s wall clock]\n")
        report_chunks.append(outcome.report)
        if args.export and outcome.comparisons:
            from repro.analysis.export import save

            directory = pathlib.Path(args.export)
            directory.mkdir(parents=True, exist_ok=True)
            save(outcome.comparisons, directory / f"{name}.csv")
            save(outcome.comparisons, directory / f"{name}.json")
    if args.report:
        pathlib.Path(args.report).write_text("\n\n".join(report_chunks) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

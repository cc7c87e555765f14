"""Command line: ``python -m simbench run | compare | round``.

``run``
    all workloads, ``harness.ROUNDS`` untraced rounds each (interleaved,
    one with ``--smoke``) plus one traced round; prints every metric and writes the JSON report
    (``--out``) with a Chrome trace per workload next to it.  Exits 1
    when any workload's outputs are incorrect.
``compare BASE.json HEAD.json``
    per workload and metric verdicts; exits 1 on any ``worse``/``MOVED``.
``round``
    one round in this process, printed as one JSON line (the harness
    starts one of these per round).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from simbench import compare, harness
from simbench.metrics import ROOT

DEFAULT_OUT = str(ROOT / ".simbench" / "e2e.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m simbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run every workload and print every metric")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    run.add_argument("--out", default=DEFAULT_OUT, help="JSON report path")

    judge = commands.add_parser("compare", help="judge HEAD against BASE")
    judge.add_argument("base")
    judge.add_argument("head")

    one = commands.add_parser("round", help="one round in this process (JSON line)")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--smoke", action="store_true")
    one.add_argument("--traced", action="store_true")
    one.add_argument("--spans", default=None, help="Chrome trace path (traced rounds)")

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.main(args.base, args.head)
    if args.command == "round":
        from simbench.rounds import run_round

        record = run_round(
            args.workload, args.seed, smoke=args.smoke, traced=args.traced, spans_path=args.spans
        )
        print(json.dumps(record, sort_keys=True))
        return 0
    if not harness.source_present():
        print("simbench: no src/repro next to the benchmark; nothing to run", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out)
    rounds = 1 if args.smoke else harness.ROUNDS
    report = harness.run_all(args.seed, smoke=args.smoke, rounds=rounds, out=out)
    print(harness.render(report))
    print(f"report: {out}")
    correct = all(result["correct"] for result in report["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Measure one workload: the command ``BENCHMARK.json`` names.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it runs untraced
rounds (each in a fresh subprocess) until ``--seconds`` have passed and
at least three rounds are done, and reports the median of every
end-to-end metric; with ``--trace 1`` it runs one untraced and one
traced round and reports every per-layer metric.  The last line of
standard output is the result as one JSON object.  Without the
simulator's sources (``src/repro``) next to it, it exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from simbench import harness, metrics  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    _, _, workloads = metrics.load()
    parser = argparse.ArgumentParser(prog="simbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.source_present():
        print("simbench: no src/repro next to the benchmark; nothing to run", file=sys.stderr)
        return 2
    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

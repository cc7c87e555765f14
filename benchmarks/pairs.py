"""Paired wall-clock comparison of this tree against a git ref.

    python benchmarks/pairs.py --base REF --pairs N --workload W [--seconds S] [--seed K]

Clones ``REF`` into a temporary directory outside the repository,
compiles the bytecode of both trees (so neither pays for recompiling
edited modules inside a round), then runs ``simbench/run.py`` on the
workload ``N`` times in each tree, alternating which tree runs first.
It prints, per end-to-end metric of ``BENCHMARK.json``, the per-pair
ratios change/base, both medians and quartiles, and in how many pairs
the change was better.  The change's median gap is compared with the
base's interquartile range: a gain smaller than the base's own spread
is not a gain.

The ``sim_*`` metrics are simulated results and must repeat bit for
bit; the exit status is 1 if any of them differs between any two runs,
0 otherwise.  Run from anywhere.  The seed defaults to 0; a claimed
gain should also hold on a seed the change was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class MetricSummary:
    """One wall-clock metric over ``N`` pairs."""

    name: str
    better: str
    #: change / base, one per pair.
    ratios: tuple[float, ...]
    base_quartiles: tuple[float, float, float]
    change_quartiles: tuple[float, float, float]
    #: Pairs in which the change beat the base.
    wins: int

    @property
    def median_ratio(self) -> float:
        return statistics.median(self.ratios)

    @property
    def gap(self) -> float:
        """Median change - median base, positive = the change is better."""
        delta = self.change_quartiles[1] - self.base_quartiles[1]
        return delta if self.better == "higher" else -delta

    @property
    def base_iqr(self) -> float:
        return self.base_quartiles[2] - self.base_quartiles[0]


def parse_result(stdout: str) -> dict[str, float]:
    """Metric name -> value from the last stdout line of ``run.py``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("simbench/run.py printed no result")
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4, method="inclusive")
    return first, median, third


def summarize(
    pairs: list[tuple[dict[str, float], dict[str, float]]], better: dict[str, str]
) -> tuple[list[MetricSummary], list[str]]:
    """Wall summaries and ``sim_*`` mismatches of ``(base, change)`` pairs.

    ``better`` maps each end-to-end metric to ``"higher"`` or
    ``"lower"``.  A mismatch names a ``sim_*`` metric whose value is not
    the same in every run of both trees.
    """
    if not pairs:
        raise ValueError("no pairs to summarize")
    summaries = []
    mismatches = []
    for name, direction in better.items():
        base = [pair[0].get(name) for pair in pairs]
        change = [pair[1].get(name) for pair in pairs]
        if name.startswith("sim_"):
            if len(set(map(repr, base + change))) > 1:
                mismatches.append(f"{name}: base {base} change {change}")
            continue
        if None in base or None in change:
            continue
        wins = sum(
            (new > old) if direction == "higher" else (new < old)
            for old, new in zip(base, change)
        )
        summaries.append(
            MetricSummary(
                name=name,
                better=direction,
                ratios=tuple(new / old for old, new in zip(base, change)),
                base_quartiles=quartiles(base),
                change_quartiles=quartiles(change),
                wins=wins,
            )
        )
    return summaries, mismatches


def render(summaries: list[MetricSummary], pairs: int) -> str:
    lines = []
    for item in summaries:
        base_q1, base_med, base_q3 = item.base_quartiles
        change_q1, change_med, change_q3 = item.change_quartiles
        verdict = "clears" if item.gap > item.base_iqr else "within"
        lines += [
            f"{item.name} ({item.better} is better)",
            "  ratios change/base: " + " ".join(f"{ratio:.3f}" for ratio in item.ratios),
            f"  median ratio {item.median_ratio:.3f}; "
            f"change better in {item.wins} of {pairs}",
            f"  base   Q1 {base_q1:.6g}  median {base_med:.6g}  Q3 {base_q3:.6g}",
            f"  change Q1 {change_q1:.6g}  median {change_med:.6g}  Q3 {change_q3:.6g}",
            f"  median gap {item.gap:.6g} {verdict} the base IQR {item.base_iqr:.6g}",
        ]
    return "\n".join(lines)


def _better_by_metric() -> dict[str, str]:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def _clone(ref: str, into: pathlib.Path) -> None:
    commit = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    subprocess.run(
        ["git", "clone", "--quiet", "--no-checkout", str(REPO_ROOT), str(into)], check=True
    )
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", commit], check=True)


def _compile(tree: pathlib.Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "simbench"], cwd=tree, check=True
    )


def _run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    completed = subprocess.run(
        [
            sys.executable,
            "simbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=tree,
        check=True,
        capture_output=True,
        text=True,
    )
    return parse_result(completed.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/pairs.py", description="Paired wall-clock comparison against a git ref."
    )
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs <= 0:
        parser.error("--pairs must be positive")
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="pairs-base-"))
    try:
        base_tree = scratch / "base"
        _clone(args.base, base_tree)
        for tree in (base_tree, REPO_ROOT):
            _compile(tree)
        pairs = []
        for index in range(args.pairs):
            order = (base_tree, REPO_ROOT) if index % 2 == 0 else (REPO_ROOT, base_tree)
            results = {
                tree: _run(tree, args.workload, args.seed, args.seconds) for tree in order
            }
            pairs.append((results[base_tree], results[REPO_ROOT]))
            rps = results[REPO_ROOT]["requests_per_s"] / results[base_tree]["requests_per_s"]
            print(f"pair {index + 1}/{args.pairs}: requests_per_s ratio {rps:.3f}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summaries, mismatches = summarize(pairs, _better_by_metric())
    print(
        f"{args.workload} (seed {args.seed}): this tree vs {args.base}, "
        f"{args.pairs} pairs of {args.seconds:g} s"
    )
    print(render(summaries, args.pairs))
    for mismatch in mismatches:
        print(f"sim_* MOVED {mismatch}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

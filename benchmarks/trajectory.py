"""Fold the per-area bench snapshots into one per-PR trajectory.

A benchmark session that runs the backend matrix or the cluster bench
overwrites ``results/BENCH_<area>.json`` with the *current* tree's
numbers — a snapshot with no memory.  This module appends those
snapshots to ``results/TRAJECTORY.json`` as one labelled entry per PR,
so the perf trajectory (per-backend serving throughput, cluster
events/s) is a first-class artifact the next session can diff against
instead of re-deriving from git history.  The ``pr8`` and ``pr13``
entries also hold a third area, the walk time of a static checker that
has since been deleted; they are kept as history.

Labels default to ``pr<N>`` where ``N`` is the highest ``PR <N>`` that
heads an entry of ``CHANGES.md``, which keeps the series keyed to the
stacked-PR sequence without consulting git.  A PR may write several
lines or none, so the label never counts lines.
Re-folding under an existing label replaces that entry in place, so
re-running benchmarks within one PR never duplicates a point.

Run directly (``python benchmarks/trajectory.py [--label pr9]``) or let
the benchmark harness fold automatically at the end of a session that
wrote a snapshot.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"
TRAJECTORY = RESULTS_DIR / "TRAJECTORY.json"
BENCH_PREFIX = "BENCH_"
#: ``PR <N>`` at the head of a CHANGES.md entry (``- PR <N>: ...``,
#: ``- **PR <N> (kind) ...``); a ``PR <N>`` later in a line is a reference.
_ENTRY_HEAD = re.compile(r"^\s*(?:-\s*)?(?:\*\*)?\s*PR (\d+)\b")


def default_label(changes_path: pathlib.Path | None = None) -> str:
    """``pr<N>`` for the highest ``PR <N>`` heading a CHANGES.md entry."""
    path = changes_path or (REPO_ROOT / "CHANGES.md")
    try:
        lines = path.read_text().splitlines()
    except OSError:
        lines = []
    numbers = [int(match[1]) for line in lines if (match := _ENTRY_HEAD.match(line))]
    return f"pr{max(numbers, default=0)}"


def collect_benches(results_dir: pathlib.Path | None = None) -> dict[str, object]:
    """``{area: payload}`` for every ``BENCH_<area>.json`` present."""
    directory = results_dir or RESULTS_DIR
    benches: dict[str, object] = {}
    if not directory.is_dir():
        return benches
    for path in sorted(directory.glob(f"{BENCH_PREFIX}*.json")):
        area = path.stem[len(BENCH_PREFIX) :]
        try:
            benches[area] = json.loads(path.read_text())
        except (OSError, ValueError):
            continue  # a torn write never poisons the series
    return benches


def load_trajectory(path: pathlib.Path | None = None) -> dict:
    target = path or TRAJECTORY
    try:
        loaded = json.loads(target.read_text())
    except (OSError, ValueError):
        return {"version": 1, "series": []}
    if not isinstance(loaded, dict) or not isinstance(loaded.get("series"), list):
        return {"version": 1, "series": []}
    return loaded


def fold(
    *,
    label: str | None = None,
    results_dir: pathlib.Path | None = None,
    trajectory_path: pathlib.Path | None = None,
    changes_path: pathlib.Path | None = None,
) -> dict | None:
    """Fold the current bench snapshots into the trajectory file.

    Returns the appended/replaced entry, or ``None`` when there are no
    snapshots to fold (the trajectory file is then left untouched).
    """
    benches = collect_benches(results_dir)
    if not benches:
        return None
    entry = {"label": label or default_label(changes_path), "bench": benches}
    target = trajectory_path or TRAJECTORY
    trajectory = load_trajectory(target)
    series = [item for item in trajectory["series"] if item.get("label") != entry["label"]]
    series.append(entry)
    trajectory["series"] = series
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fold results/BENCH_*.json into results/TRAJECTORY.json."
    )
    parser.add_argument(
        "--label",
        default=None,
        help="series label for this fold (default: pr<N> from CHANGES.md)",
    )
    args = parser.parse_args(argv)
    entry = fold(label=args.label)
    if entry is None:
        print("trajectory: no results/BENCH_*.json snapshots to fold")
        return 1
    areas = ", ".join(sorted(entry["bench"]))
    print(f"trajectory: folded [{areas}] as {entry['label']} -> {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

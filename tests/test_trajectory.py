"""The perf-trajectory folder: BENCH snapshots -> one labelled series."""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.trajectory import collect_benches, default_label, fold, load_trajectory


def _write_bench(results: Path, area: str, payload: dict) -> None:
    results.mkdir(exist_ok=True)
    (results / f"BENCH_{area}.json").write_text(json.dumps(payload))


def test_default_label_counts_changes_entries(tmp_path: Path) -> None:
    # The label is the highest PR number heading an entry, however many
    # lines each entry takes: multi-line entries, sub-bullets, an
    # unlabelled entry and FOUND lines that cite a later PR do not count.
    changes = tmp_path / "CHANGES.md"
    changes.write_text(
        "# Changes\n\n"
        "- PR 1: first change.\n"
        "- **PR 20 (perf): a change\n"
        "  that spans two lines.**\n"
        "- a sub-bullet with no number\n"
        "An unlabelled entry that mentions PR 99 mid-line.\n"
        "FOUND: seen after PR 30 in `a.py`.\n"
        "- **PR 22 (tests follow-up).**\n"
        "PR 21: an entry written without a bullet.\n"
    )
    assert default_label(changes) == "pr22"
    changes.write_text("# Changes\n\n- an entry\n- another entry\n")
    assert default_label(changes) == "pr0"


def test_default_label_missing_changes_is_pr0(tmp_path: Path) -> None:
    assert default_label(tmp_path / "absent.md") == "pr0"


def test_collect_benches_skips_torn_writes(tmp_path: Path) -> None:
    _write_bench(tmp_path, "simlint", {"total_ms": 12.5})
    (tmp_path / "BENCH_broken.json").write_text("{not json")
    benches = collect_benches(tmp_path)
    assert benches == {"simlint": {"total_ms": 12.5}}


def test_fold_appends_labelled_entry(tmp_path: Path) -> None:
    results = tmp_path / "results"
    _write_bench(results, "simlint", {"total_ms": 10.0})
    _write_bench(results, "cluster", {"primary": {"virtual_qps": 1.0}})
    trajectory = results / "TRAJECTORY.json"
    entry = fold(label="pr9", results_dir=results, trajectory_path=trajectory)
    assert entry is not None
    assert entry["label"] == "pr9"
    assert set(entry["bench"]) == {"simlint", "cluster"}
    loaded = load_trajectory(trajectory)
    assert loaded["version"] == 1
    assert [item["label"] for item in loaded["series"]] == ["pr9"]


def test_refold_replaces_same_label_in_place(tmp_path: Path) -> None:
    results = tmp_path / "results"
    trajectory = results / "TRAJECTORY.json"
    _write_bench(results, "simlint", {"total_ms": 10.0})
    fold(label="pr9", results_dir=results, trajectory_path=trajectory)
    _write_bench(results, "simlint", {"total_ms": 20.0})
    fold(label="pr9", results_dir=results, trajectory_path=trajectory)
    series = load_trajectory(trajectory)["series"]
    assert len(series) == 1
    assert series[0]["bench"]["simlint"]["total_ms"] == 20.0
    # A new label extends the series instead.
    fold(label="pr10", results_dir=results, trajectory_path=trajectory)
    assert [item["label"] for item in load_trajectory(trajectory)["series"]] == [
        "pr9",
        "pr10",
    ]


def test_fold_without_snapshots_is_a_noop(tmp_path: Path) -> None:
    results = tmp_path / "results"
    results.mkdir()
    trajectory = results / "TRAJECTORY.json"
    assert fold(results_dir=results, trajectory_path=trajectory) is None
    assert not trajectory.exists()


def test_corrupt_trajectory_resets_cleanly(tmp_path: Path) -> None:
    results = tmp_path / "results"
    _write_bench(results, "simlint", {"total_ms": 10.0})
    trajectory = results / "TRAJECTORY.json"
    trajectory.write_text("[]")  # wrong shape: not a {series: [...]} dict
    fold(label="pr9", results_dir=results, trajectory_path=trajectory)
    assert [item["label"] for item in load_trajectory(trajectory)["series"]] == ["pr9"]

"""The shipped tree is lint-clean.

The CI gate: ``python -m repro.lint src/repro benchmarks examples``
exits 0.  Every real violation is fixed or carries an inline
``# simlint: allow[rule]`` comment; there is no baseline of
grandfathered findings.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_cli_gate_passes(monkeypatch) -> None:
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src/repro", "benchmarks", "examples"]) == 0

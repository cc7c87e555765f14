"""CLI behaviour: exit codes, suppressions, and output formats."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.cli import main

VIOLATION = "import time\n\n\ndef f():\n    return time.time()\n"
SUPPRESSED = (
    "import time\n\n\ndef f():\n"
    "    return time.time()  # simlint: allow[virtual-time-purity]\n"
)


def test_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("virtual-time-purity", "seeded-rng-only"):
        assert rule in out


def test_findings_exit_one(tmp_path: Path, capsys) -> None:
    target = tmp_path / "mod.py"
    target.write_text(VIOLATION)
    assert main([str(target)]) == 1
    out = capsys.readouterr().out
    assert "virtual-time-purity" in out
    assert "mod.py:5" in out


def test_suppressed_exit_zero(tmp_path: Path) -> None:
    target = tmp_path / "mod.py"
    target.write_text(SUPPRESSED)
    assert main([str(target)]) == 0


def test_rule_filter(tmp_path: Path) -> None:
    target = tmp_path / "mod.py"
    target.write_text(VIOLATION)
    assert main([str(target), "--rule", "seeded-rng-only"]) == 0
    assert main([str(target), "--rule", "virtual-time-purity"]) == 1


def test_unknown_rule_is_usage_error(tmp_path: Path) -> None:
    target = tmp_path / "mod.py"
    target.write_text(VIOLATION)
    with pytest.raises(SystemExit) as excinfo:
        main([str(target), "--rule", "no-such-rule"])
    assert excinfo.value.code == 2


def test_format_github_annotations(tmp_path: Path, capsys) -> None:
    target = tmp_path / "mod.py"
    target.write_text(VIOLATION)
    assert main([str(target), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "line=5" in out
    assert "title=simlint[virtual-time-purity]" in out


# --- exit code 2: crash/config errors vs. findings --------------------


def test_engine_crash_exits_two(tmp_path: Path, monkeypatch, capsys) -> None:
    target = tmp_path / "mod.py"
    target.write_text(VIOLATION)

    def boom(paths, *, rule_ids=None):
        raise RuntimeError("rule exploded")

    monkeypatch.setattr("repro.lint.cli.run", boom)
    assert main([str(target)]) == 2
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "rule exploded" in err


# --- github format escaping -------------------------------------------


def test_github_escaping_of_messages_and_properties(capsys) -> None:
    from repro.lint.cli import _emit_github
    from repro.lint.findings import Finding

    finding = Finding(
        path="odd,name.py",
        line=3,
        rule="demo-rule",
        message="first :: line\nsecond % line",
    )
    _emit_github([finding])
    out = capsys.readouterr().out
    # One physical line: the newline is %0A, % is %25, and the comma in
    # the path cannot terminate the file= property early.
    assert out == (
        "::error file=odd%2Cname.py,line=3,"
        "title=simlint[demo-rule]::first :: line%0Asecond %25 line\n"
    )

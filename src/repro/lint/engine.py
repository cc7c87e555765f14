"""The simlint engine: collect files, run rules, filter suppressions.

The engine is import-light and purely syntactic: it parses each file
once, hands the shared :class:`ModuleContext` to every rule,
and drops findings the source explicitly allows (``# simlint:
allow[rule]``).  Every rule sees one module at a time.

When the full rule set runs, allow comments that excused nothing are
reported as ``unused-suppression`` findings; under ``--rule`` filters
the check is skipped (a suppression may target a rule that was not
run).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator

import repro.lint.rules  # noqa: F401  (registers the built-in rules)
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding, sort_findings
from repro.lint.rules.base import RULES, Rule
from repro.lint.suppressions import SuppressionIndex

#: Pseudo-rule id for files the parser rejects.
SYNTAX_ERROR = "syntax-error"

#: Pseudo-rule id for allow comments that excused no finding.
UNUSED_SUPPRESSION = "unused-suppression"

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, in a deterministic order."""
    for path in paths:
        path = Path(path)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS and not d.startswith("."))
            for name in sorted(files):
                if name.endswith(".py"):
                    yield Path(root) / name


def _report_path(path: Path) -> str:
    """Path as reported in findings: relative to the cwd when inside it."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _lint_context(
    ctx: ModuleContext, rules: Iterable[Rule], *, report_unused: bool
) -> list[Finding]:
    suppressions = SuppressionIndex.from_source(ctx.source)
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not suppressions.allows(finding.line, finding.rule, finding.span_end):
                findings.append(finding)
    if report_unused:
        for line, rule_name in suppressions.unused():
            finding = Finding(
                path=ctx.path,
                line=line,
                rule=UNUSED_SUPPRESSION,
                message=(
                    f"allow[{rule_name}] suppresses nothing; remove the stale "
                    "exemption (or fix the rule id)"
                ),
            )
            if not suppressions.allows(finding.line, finding.rule):
                findings.append(finding)
    return findings


def lint_source(
    source: str, path: str = "<string>", *, rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Lint one source string (the unit-test entry point)."""
    try:
        ctx = ModuleContext.parse(path, source)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1, rule=SYNTAX_ERROR, message=str(exc))]
    selected = list(rules) if rules is not None else list(RULES.values())
    return sort_findings(_lint_context(ctx, selected, report_unused=rules is None))


def lint_file(path: str | Path, *, rules: Iterable[Rule] | None = None) -> list[Finding]:
    path = Path(path)
    return lint_source(path.read_text(), _report_path(path), rules=rules)


def run(
    paths: Iterable[str | Path], *, rule_ids: Iterable[str] | None = None
) -> list[Finding]:
    """Lint every Python file under ``paths``; suppressions applied."""
    selected: list[Rule] | None = None
    if rule_ids is not None:
        unknown = sorted(set(rule_ids) - set(RULES))
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
        selected = [RULES[rule_id] for rule_id in rule_ids]
    findings: list[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(lint_file(file, rules=selected))
    return sort_findings(findings)


__all__ = [
    "SYNTAX_ERROR",
    "UNUSED_SUPPRESSION",
    "iter_python_files",
    "lint_file",
    "lint_source",
    "run",
]

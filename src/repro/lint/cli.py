"""``python -m repro.lint``: the simlint command line.

Exit codes: 0 clean (or every finding suppressed inline), 1 findings
reported, 2 crash or configuration error (bad invocation, unreadable
paths, internal error) — so CI can tell "the tree has findings" from
"the linter never actually ran".  See ``docs/LINTING.md`` for the rule
catalogue and the suppression syntax.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.engine import run
from repro.lint.findings import Finding
from repro.lint.rules.base import RULES

#: CLI output modes.
FORMATS = ("text", "github")


def _escape_data(value: str) -> str:
    """Escape a workflow-command *message*: %, CR, LF.

    Raw newlines would truncate the annotation at the first line and
    leak the rest as terminal noise; a literal ``::`` inside data is
    harmless once ``%`` is escaped first.
    """
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_property(value: str) -> str:
    """Escape a workflow-command *property* (file=, title=): also : and ,."""
    return _escape_data(value).replace(":", "%3A").replace(",", "%2C")


def _emit_github(findings: list[Finding]) -> None:
    """GitHub Actions workflow commands: inline PR annotations."""
    for finding in findings:
        location = f"file={_escape_property(finding.path)},line={finding.line}"
        if finding.end_line is not None and finding.end_line > finding.line:
            location += f",endLine={finding.end_line}"
        title = _escape_property(f"simlint[{finding.rule}]")
        print(f"::error {location},title={title}::{_escape_data(finding.message)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: AST invariant checks for the virtual-time simulator.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE-ID",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output mode: text (default) or github (inline ::error "
        "annotations for CI)",
    )
    parser.add_argument("--list-rules", action="store_true", help="list rule ids and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}: {RULES[rule_id].description}")
        return 0

    try:
        findings = run(args.paths, rule_ids=args.rules)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    except OSError as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # crash in the engine or a rule
        print(
            f"simlint: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2

    if args.format == "github":
        _emit_github(findings)
    else:
        for finding in findings:
            print(finding.render())
    checked = ", ".join(str(p) for p in args.paths)
    # Keep the annotation stream clean: the summary goes to stderr
    # for the github format.
    summary_stream = sys.stdout if args.format == "text" else sys.stderr
    print(f"simlint: {len(findings)} finding(s) in {checked}", file=summary_stream)
    return 1 if findings else 0


__all__ = ["main"]

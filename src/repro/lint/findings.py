"""The finding record every simlint rule emits.

A finding pins one invariant violation to a file and line.  Paths are
reported the way the engine received them (normally relative to the
invocation directory) so output lines are clickable.  ``end_line`` carries the flagged
statement's extent so suppressions on any physical line of a
multi-line statement apply, and ``--format github`` can annotate the
full span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    rule: str
    message: str
    end_line: int | None = None

    @property
    def span_end(self) -> int:
        return self.end_line if self.end_line is not None else self.line

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Stable report order: by path, then line, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


__all__ = ["Finding", "sort_findings"]

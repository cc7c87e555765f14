"""``# simlint: allow[...]`` suppression comments.

A finding is suppressed when any line of the flagged statement — or a
comment-only line directly above it — carries an allow comment naming
the rule::

    started = time.time()  # simlint: allow[virtual-time-purity]

    # simlint: allow[seeded-rng-only,virtual-time-purity]
    jitter = random.random() * time.time()

``allow[*]`` suppresses every rule on the target line.  Suppressions
are deliberately line-scoped: there is no file- or block-level escape
hatch, so every exemption stays visible next to the code it excuses.

The index tracks which allow comments actually suppressed something;
the engine reports the rest as ``unused-suppression`` findings so dead
exemptions are ratcheted out instead of silently masking future
violations.
"""

from __future__ import annotations

import io
import re
import tokenize

_ALLOW = re.compile(r"#\s*simlint:\s*allow\[([^\]]*)\]")

WILDCARD = "*"


def _allowed_rules(line: str) -> frozenset[str] | None:
    match = _ALLOW.search(line)
    if match is None:
        return None
    return frozenset(part.strip() for part in match.group(1).split(",") if part.strip())


class _Entry:
    """One allow comment: where it lives and which rules it has excused."""

    __slots__ = ("comment_line", "rules", "used")

    def __init__(self, comment_line: int, rules: frozenset[str]) -> None:
        self.comment_line = comment_line
        self.rules = rules
        #: rules this comment actually suppressed (``*`` counts once).
        self.used: set[str] = set()


class SuppressionIndex:
    """Which rules each source line allows, including carry-down.

    A standalone allow comment (nothing but the comment on its line)
    applies to itself *and* the line below, so it can sit above a long
    statement without widening the suppression further.
    """

    def __init__(self, lines: list[str], *, comment_lines: set[int] | None = None) -> None:
        self._entries: list[_Entry] = []
        self._by_line: dict[int, list[_Entry]] = {}
        for number, text in enumerate(lines, start=1):
            rules = _allowed_rules(text)
            if rules is None:
                continue
            if comment_lines is not None and number not in comment_lines:
                continue  # allow[...] text inside a string, not a comment
            entry = _Entry(number, rules)
            self._entries.append(entry)
            self._by_line.setdefault(number, []).append(entry)
            if not text.split("#", 1)[0].strip():  # comment-only line
                self._by_line.setdefault(number + 1, []).append(entry)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        """Build the index from source text, tokenizing first.

        Tokenization pins each allow comment to a real ``COMMENT``
        token, so documentation that merely *mentions* the syntax
        inside a docstring is neither a suppression nor reported as an
        unused one.  Unparsable sources fall back to the line scan.
        """
        lines = source.splitlines()
        try:
            comment_lines = {
                token.start[0]
                for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT
            }
        except (tokenize.TokenError, SyntaxError, IndentationError, ValueError):
            return cls(lines)
        return cls(lines, comment_lines=comment_lines)

    def allows(self, line: int, rule: str, end_line: int | None = None) -> bool:
        """Whether ``rule`` is allowed anywhere on ``line..end_line``.

        Marks every matching allow comment as used; multi-line
        statements are suppressible from any of their physical lines.
        """
        allowed = False
        for number in range(line, (end_line if end_line is not None else line) + 1):
            for entry in self._by_line.get(number, ()):
                if rule in entry.rules:
                    entry.used.add(rule)
                    allowed = True
                elif WILDCARD in entry.rules:
                    entry.used.add(WILDCARD)
                    allowed = True
        return allowed

    def unused(self) -> list[tuple[int, str]]:
        """``(comment line, rule)`` pairs that never excused a finding."""
        dead: list[tuple[int, str]] = []
        for entry in self._entries:
            for rule in sorted(entry.rules):
                if rule == WILDCARD:
                    if not entry.used:
                        dead.append((entry.comment_line, rule))
                elif rule not in entry.used:
                    dead.append((entry.comment_line, rule))
        return dead


__all__ = ["SuppressionIndex", "WILDCARD"]

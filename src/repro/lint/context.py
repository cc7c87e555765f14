"""Per-module context handed to every simlint rule.

Parsing happens once per file; rules share the AST and the raw source
(for suppression comments).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


@dataclass
class ModuleContext:
    """One parsed Python module, ready for rule visitors."""

    path: str
    source: str
    tree: ast.Module = field(repr=False)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        return cls(path=path, source=source, tree=ast.parse(source, filename=path))


__all__ = ["ModuleContext"]

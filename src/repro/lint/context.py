"""Per-module context handed to every simlint rule.

Parsing happens once per file; rules share the AST, the raw source
(for suppression comments) and the module's position inside the
``repro`` package tree (for package-scoped rules).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property


@dataclass
class ModuleContext:
    """One parsed Python module, ready for rule visitors."""

    path: str
    source: str
    tree: ast.Module = field(repr=False)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        return cls(path=path, source=source, tree=ast.parse(source, filename=path))

    @cached_property
    def repro_subpackage(self) -> str | None:
        """First package segment under ``repro`` (``"sim"``, ``"core"``...).

        ``None`` when the file is outside the ``repro`` tree (scripts,
        test fixtures): package-scoped rules then apply unconditionally,
        so arbitrary files get the full rule set.  Top-level modules
        such as ``repro/config.py`` map to the empty string.
        """
        parts = self.path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return None
        after = parts[parts.index("repro") + 1 :]
        if len(after) <= 1:  # repro/<module>.py
            return ""
        return after[0]


__all__ = ["ModuleContext"]

"""Per-module context handed to every simlint rule.

Parsing happens once per file; rules share the AST, the raw source
lines (for suppression comments), the module's position inside the
``repro`` package tree (for package-scoped rules), and the flow
analysis (:mod:`repro.lint.flow`) the alias-aware rules query.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property

from repro.lint.flow import FlowAnalysis
from repro.lint.units import UnitAnalysis


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
    def lines(self) -> list[str]:
        return self.source.splitlines()

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

    @cached_property
    def module_name(self) -> str:
        """Dotted module name guessed from the path (``repro.sim.clock``).

        Files outside a ``repro`` tree map to their bare stem, which is
        how sibling fixtures resolve each other in the package index.
        """
        parts = [part for part in self.path.replace("\\", "/").split("/") if part]
        if not parts:
            return ""
        stem = parts[-1]
        if stem.endswith(".py"):
            stem = stem[:-3]
        if "repro" in parts[:-1]:
            dotted = parts[parts.index("repro") : -1]
            if stem != "__init__":
                dotted.append(stem)
            return ".".join(dotted)
        return stem

    @cached_property
    def flow(self) -> FlowAnalysis:
        """The module's flow analysis; built lazily, shared by rules.

        The engine's directory runs install a shared package index on
        this object (``ctx.flow.package_index``) before linting so
        cross-module call sites resolve; single-file entry points see
        an empty index and degrade to intra-module analysis.
        """
        return FlowAnalysis(self.tree, module_name=self.module_name)

    @cached_property
    def units(self) -> UnitAnalysis:
        """The module's dimensional analysis; built lazily, shared.

        Like ``flow``, directory runs install a shared module index
        (``ctx.units.module_index``) before linting so call results
        and parameter dims resolve across files.
        """
        return UnitAnalysis(self.tree, module_name=self.module_name)


__all__ = ["ModuleContext"]

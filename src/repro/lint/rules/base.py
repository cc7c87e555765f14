"""Rule base class, the rule registry, and shared AST helpers."""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding

#: rule id -> rule instance; populated by the ``register`` decorator.
RULES: dict[str, "Rule"] = {}


class Rule:
    """One invariant checker: an AST pass producing findings.

    Every rule is enforced on every file it is run over.
    """

    id: str = ""
    description: str = ""

    def check(self, ctx: ModuleContext) -> list[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=node.lineno,
            rule=self.id,
            message=message,
            end_line=getattr(node, "end_lineno", None),
        )


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate the rule and add it to the registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return rule_cls


def attr_chain(node: ast.AST) -> tuple[str, ...] | None:
    """Dotted name of an attribute chain, e.g. ``np.random.rand``.

    Returns ``None`` when the chain is rooted in anything other than a
    plain name (a call result, a subscript, ...).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def module_aliases(tree: ast.Module, *modules: str) -> set[str]:
    """Local names bound to any of ``modules`` by ``import`` statements."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name in modules:
                    aliases.add(item.asname or item.name.split(".")[0])
    return aliases


__all__ = [
    "RULES",
    "Rule",
    "attr_chain",
    "module_aliases",
    "register",
]

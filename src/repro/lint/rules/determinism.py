"""deterministic-iteration: no order-sensitive walks over hash sets.

``set``/``frozenset`` iteration order depends on insertion history and
element hashes — with ``PYTHONHASHSEED`` randomization (strings) or
different interning, two identical runs can visit victims, channels or
pages in different orders and diverge.  Inside the simulator packages
the rule flags ``for`` loops and comprehensions that iterate a set
expression or a local variable bound to one, plus set-to-sequence
constructions (``list(set(...))``, ``dict.fromkeys(set(...))``,
``enumerate(set(...))``).  Wrapping the set in ``sorted(...)`` — the
pattern used throughout (``for addr in sorted(slab.items)``) — is the
sanctioned fix and is never flagged.  Dict iteration is fine: dicts
are insertion-ordered.

The same rule flags ``id()`` / ``hash()`` feeding an ordering (sort and
heap keys, ``min``/``max``, ``<`` comparisons): both vary across
processes and runs, so any order they induce is unreproducible.
Identity-map lookups like ``table[id(obj)]`` stay legal.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules.base import SIM_PACKAGES, Rule, attr_chain, register

#: Calls whose argument order becomes observable output order.
ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})

#: Calls whose argument order becomes an ordering of results.
ORDERING_CALLS = frozenset(
    {
        "sorted",
        "sort",
        "min",
        "max",
        "heappush",
        "heappushpop",
        "heapify",
        "heapreplace",
        "nsmallest",
        "nlargest",
        "merge",
    }
)

#: Builtins whose value differs across processes/runs for equal inputs.
UNSTABLE_VALUE_CALLS = frozenset({"id", "hash"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def _annotation_is_set(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    return text.startswith(("set[", "frozenset[", "Set[", "FrozenSet[")) or text in {
        "set",
        "frozenset",
    }


class _SetNames(ast.NodeVisitor):
    """Names (and ``self.<attr>`` attributes) bound to set values."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attrs: set[str] = set()

    def _bind(self, target: ast.AST, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            (self.names.add if is_set else self.names.discard)(target.id)
        elif isinstance(target, ast.Attribute):
            (self.attrs.add if is_set else self.attrs.discard)(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._bind(target, _is_set_expr(node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = _annotation_is_set(node.annotation) or (
            node.value is not None and _is_set_expr(node.value)
        )
        self._bind(node.target, is_set)
        self.generic_visit(node)


def _unstable_calls(node: ast.AST) -> list[ast.Call]:
    """``id()`` / ``hash()`` calls feeding the value of ``node``.

    Subscript indices are skipped: ``table[id(obj)]`` is an identity-map
    *lookup*; the looked-up value, not the id, reaches the ordering.
    """
    found: list[ast.Call] = []

    def visit(expr: ast.AST) -> None:
        if isinstance(expr, ast.Subscript):
            visit(expr.value)
            return
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in UNSTABLE_VALUE_CALLS
        ):
            found.append(expr)
        for child in ast.iter_child_nodes(expr):
            visit(child)

    visit(node)
    return found


@register
class DeterministicIteration(Rule):
    id = "deterministic-iteration"
    description = (
        "iterating a set/frozenset, or ordering by id()/hash(), is "
        "nondeterministic; iterate sorted(...) or key on stable state"
    )
    packages = SIM_PACKAGES

    def check(self, ctx: ModuleContext) -> list[Finding]:
        bindings = _SetNames()
        bindings.visit(ctx.tree)
        findings: list[Finding] = []

        def names_set(node: ast.AST) -> bool:
            if _is_set_expr(node):
                return True
            if isinstance(node, ast.Name):
                return node.id in bindings.names
            if isinstance(node, ast.Attribute):
                return node.attr in bindings.attrs
            return False

        def report(node: ast.AST, what: str) -> None:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"{what} iterates a hash set in a simulator hot path; "
                    "wrap it in sorted(...) for a stable order",
                )
            )

        # A nested ordering (``sorted(sorted(xs, key=...))``) reaches the
        # same id()/hash() call twice; report it once.
        unstable_reported: set[int] = set()

        def report_unstable(value: ast.AST, where: str) -> None:
            for call in _unstable_calls(value):
                if id(call) in unstable_reported:
                    continue
                unstable_reported.add(id(call))
                what = call.func.id  # type: ignore[union-attr]
                findings.append(
                    self.finding(
                        ctx,
                        call,
                        f"{what}() feeds an ordering ({where}); its value "
                        "varies across processes, so the induced order is "
                        "unreproducible; key on stable simulation state",
                    )
                )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and names_set(node.iter):
                report(node, "for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if names_set(generator.iter):
                        report(node, "comprehension")
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                order_sensitive = (
                    isinstance(node.func, ast.Name) and node.func.id in ORDER_SENSITIVE_CALLS
                ) or (chain is not None and chain[-2:] == ("dict", "fromkeys"))
                if order_sensitive and node.args and names_set(node.args[0]):
                    target = ast.unparse(node.func)
                    report(node, f"`{target}(...)` call")
                leaf = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                for keyword in node.keywords:
                    if keyword.arg == "key":
                        report_unstable(keyword.value, "key=")
                if leaf in ORDERING_CALLS:
                    for arg in node.args:
                        report_unstable(arg, f"{leaf}()")
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
            ):
                for operand in (node.left, *node.comparators):
                    report_unstable(operand, "an ordering comparison")
        return findings


__all__ = ["DeterministicIteration"]

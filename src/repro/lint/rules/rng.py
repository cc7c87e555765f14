"""seeded-rng-only: all randomness flows from an injected ``Random(seed)``.

Module-level ``random.*`` calls draw from one hidden global stream:
any import-order change or unrelated extra draw reshuffles every
workload, so "same config + seed" stops meaning "same results".  The
rule requires each component to own a ``random.Random(seed)`` (or
``numpy.random.default_rng(seed)``) instance plumbed from its config —
see ``CacheConfig.rng_seed`` and ``*WorkloadConfig.seed``.

A name a scope binds to the global module (``r = random``) is
treated like the module itself there, and handing the module to any call
(``jitter(random)``) is flagged at the call: whatever the callee does
with it, it draws from the global stream.  Seeded
``random.Random(seed)`` *instances* flow freely.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, register

#: ``random``-module attributes that are fine to reference: the seeded
#: generator class.
ALLOWED_RANDOM_ATTRS = frozenset({"Random"})

#: numpy.random constructors that accept an explicit seed.
ALLOWED_NUMPY_ATTRS = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64"})


#: Nodes that open a new name scope.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imported_modules(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Expressions (as source text) the imports bind to ``random`` and
    to ``numpy.random``."""
    randoms: set[str] = set()
    numpy_randoms: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "random":
                    randoms.add(item.asname or "random")
                elif item.name == "numpy":
                    numpy_randoms.add(f"{item.asname or 'numpy'}.random")
                elif item.name == "numpy.random":
                    numpy_randoms.add(item.asname or "numpy.random")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for item in node.names:
                if item.name == "random":
                    numpy_randoms.add(item.asname or "random")
    return randoms, numpy_randoms


def _scope_nodes(scope: ast.AST) -> list[ast.AST]:
    """Nodes of one scope; nested function bodies are their own scopes."""
    nodes: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _bind_aliases(nodes: list[ast.AST], *bound_sets: set[str]) -> None:
    """Extend each set with the names this scope assigns from a member
    (``r = random``, ``nr = np.random``) until nothing new is bound."""
    assigns = [
        (ast.unparse(node.value), target.id)
        for node in nodes
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    ]
    changed = True
    while changed:
        changed = False
        for value, name in assigns:
            for bound in bound_sets:
                if value in bound and name not in bound:
                    bound.add(name)
                    changed = True


@register
class SeededRngOnly(Rule):
    id = "seeded-rng-only"
    description = (
        "module-level random.* / numpy.random.* calls use a hidden "
        "global stream; inject a random.Random(seed) or "
        "numpy.random.default_rng(seed) plumbed from config"
    )

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        randoms, numpy_randoms = _imported_modules(ctx.tree)
        self._check_scope(ctx, ctx.tree, randoms, numpy_randoms, findings)
        return findings

    def _check_scope(
        self,
        ctx: ModuleContext,
        scope: ast.AST,
        randoms: set[str],
        numpy_randoms: set[str],
        findings: list[Finding],
    ) -> None:
        nodes = _scope_nodes(scope)
        if isinstance(scope, _SCOPES):
            # A parameter shadows a module-level alias of the same name.
            params = {arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg)}
            randoms = randoms - params
            numpy_randoms = numpy_randoms - params
        else:
            randoms, numpy_randoms = set(randoms), set(numpy_randoms)
        _bind_aliases(nodes, randoms, numpy_randoms)
        for node in nodes:
            if isinstance(node, _SCOPES):
                self._check_scope(ctx, node, randoms, numpy_randoms, findings)
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for item in node.names:
                    if item.name not in ALLOWED_RANDOM_ATTRS:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"import of global-stream `random.{item.name}`; "
                                "inject a seeded random.Random instead",
                            )
                        )
            if not isinstance(node, ast.Call):
                continue
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id in randoms:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"the global `{arg.id}` module is passed to "
                            f"`{ast.unparse(node.func)}()`: whatever it draws comes "
                            "from the hidden global stream — pass a "
                            "random.Random(seed) instance",
                        )
                    )
                    break
            if not isinstance(node.func, ast.Attribute):
                continue
            receiver = ast.unparse(node.func.value)
            leaf = node.func.attr
            call_text = f"{receiver}.{leaf}"
            unseeded = not node.args and not node.keywords
            if receiver in randoms:
                if leaf == "Random":
                    if unseeded:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                "unseeded random.Random(); pass an explicit "
                                "seed plumbed from config",
                            )
                        )
                elif leaf == "SystemRandom":
                    findings.append(
                        self.finding(ctx, node, "random.SystemRandom is never reproducible")
                    )
                else:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"global-stream call `{call_text}()`; use an "
                            "injected random.Random(seed)",
                        )
                    )
            elif receiver in numpy_randoms:
                if leaf not in ALLOWED_NUMPY_ATTRS:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"legacy numpy global-stream call `{call_text}()`; "
                            "use numpy.random.default_rng(seed)",
                        )
                    )
                elif leaf == "default_rng" and unseeded:
                    findings.append(
                        self.finding(
                            ctx, node, "unseeded numpy default_rng(); pass an explicit seed"
                        )
                    )


__all__ = ["ALLOWED_NUMPY_ATTRS", "ALLOWED_RANDOM_ATTRS", "SeededRngOnly"]

"""shared-state-mutation: engine and QoS state has one writer.

Many tenants' events interleave on one virtual-time loop, and the
loop clock, the token buckets, the FIFO internals and the arbiter
credits (``now_ns``, ``tokens``, ``_queue``, ...) each keep invariants
only their owning class maintains.  A write from elsewhere — a shed op
handing a token back with ``lane.bucket.tokens += 1`` — skips those
invariants and, when no tested config reaches it, changes no golden
result either.  Assignments through ``self``/``cls`` and inside the
owning modules stay legal.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules.base import SIM_PACKAGES, Rule, register

#: Attributes of engine/ring/bucket objects that only their owning
#: class may assign (always allowed through ``self``).
SHARED_STATE_ATTRS = frozenset(
    {
        "now_ns",
        "tokens",
        "updated_ns",
        "busy_ns",
        "_idle",
        "_queue",
        "_heap",
        "_credits",
    }
)

#: Modules that own the shared state and may rebuild it wholesale.
MUTATION_EXEMPT_SUFFIXES = (
    "repro/serve/engine.py",
    "repro/serve/qos.py",
    "repro/serve/nvme_mq.py",
)


def _flatten_targets(target: ast.expr) -> list[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        flat: list[ast.expr] = []
        for element in target.elts:
            flat.extend(_flatten_targets(element))
        return flat
    return [target]


@register
class SharedStateMutation(Rule):
    id = "shared-state-mutation"
    description = (
        "engine/ring/bucket state (now_ns, tokens, FIFO internals) is "
        "mutated only by its owning class inside the modules that own "
        "it; external writes bypass the invariants they maintain"
    )
    packages = SIM_PACKAGES

    def check(self, ctx: ModuleContext) -> list[Finding]:
        if ctx.path.replace("\\", "/").endswith(MUTATION_EXEMPT_SUFFIXES):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in [t for raw in targets for t in _flatten_targets(raw)]:
                if not (
                    isinstance(target, ast.Attribute) and target.attr in SHARED_STATE_ATTRS
                ):
                    continue
                receiver = target.value
                if not (isinstance(receiver, ast.Name) and receiver.id in ("self", "cls")):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"mutation of engine state `{ast.unparse(target)}` outside "
                            "its owning class; shared loop/ring/bucket state is only "
                            "written by the class that maintains its invariants",
                        )
                    )
        return findings


__all__ = ["MUTATION_EXEMPT_SUFFIXES", "SHARED_STATE_ATTRS", "SharedStateMutation"]

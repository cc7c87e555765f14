"""Concurrency-discipline rules for the serving layer's shared state.

PR 3 made the simulator concurrent: many tenants' events interleave on
one virtual-time loop, and the determinism contract ("same config +
seed => byte-identical result") now depends on every handler treating
shared engine state with care.  Two rules guard the contract
statically; the runtime side is seeded tie-break perturbation
(:mod:`repro.sim.perturb`).

- ``shared-state-mutation`` — engine/ring/bucket state (``now_ns``,
  ``tokens``, FIFO internals...) is only mutated by its owning class
  (``self.<attr>``) inside the resource/engine choke modules; any
  other module poking those attributes — or assigning attributes on
  the resource ledger, whose one writer is ``Tracer._fold`` in
  ``sim/trace.py`` — bypasses the invariants those classes maintain.
- ``float-time-equality`` — ``==`` / ``!=`` on virtual-time floats
  (``*_ns``/``*_us``/``*_ms``): timestamps are accumulated floats, so
  exact equality is schedule-dependent; order with ``<=`` or compare
  with a tolerance.
"""

from __future__ import annotations

import ast

from repro.lint import flow
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

#: Choke modules that own the shared state and may rebuild it wholesale.
MUTATION_EXEMPT_SUFFIXES = (
    "repro/serve/engine.py",
    "repro/serve/qos.py",
    "repro/serve/nvme_mq.py",
    "repro/sim/trace.py",
    "repro/sim/stats.py",
)

#: Name suffixes that mark a value as a virtual-time quantity.
TIME_SUFFIXES = ("_ns", "_us", "_ms")


def _describe(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<expr>"


def _is_self_receiver(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


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
        "mutated only by its owning class inside the resource choke "
        "modules; external writes bypass the invariants they maintain"
    )
    packages = SIM_PACKAGES

    def check(self, ctx: ModuleContext) -> list[Finding]:
        normalized = ctx.path.replace("\\", "/")
        if normalized.endswith(MUTATION_EXEMPT_SUFFIXES):
            return []
        analysis = ctx.flow
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in [t for raw in targets for t in _flatten_targets(raw)]:
                if not isinstance(target, ast.Attribute):
                    continue
                if _is_self_receiver(target.value):
                    continue
                receiver_kinds = analysis.kinds(target.value)
                if target.attr in SHARED_STATE_ATTRS:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"mutation of engine state "
                            f"`{_describe(target.value)}.{target.attr}` outside its "
                            "owning Resource/Tracer choke point; shared loop/ring/"
                            "bucket state is only written by the class that "
                            "maintains its invariants",
                        )
                    )
                elif flow.LEDGER in receiver_kinds:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"assignment to `{_describe(target)}` rewrites ledger "
                            "state behind the Tracer's back; record a Stage "
                            "through the Tracer instead",
                        )
                    )
        return findings


@register
class FloatTimeEquality(Rule):
    id = "float-time-equality"
    description = (
        "== / != on *_ns virtual-time floats is schedule-dependent "
        "(timestamps are accumulated floats); use ordering or a tolerance"
    )
    packages = SIM_PACKAGES

    def _is_time_valued(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id.endswith(TIME_SUFFIXES)
        if isinstance(node, ast.Attribute):
            return node.attr.endswith(TIME_SUFFIXES)
        return False

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                # `x_ns is None` style guards use `is`; equality against
                # None is not a float comparison either.
                if isinstance(right, ast.Constant) and right.value is None:
                    continue
                if isinstance(left, ast.Constant) and left.value is None:
                    continue
                if self._is_time_valued(left) or self._is_time_valued(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"`{_describe(left)} {symbol} {_describe(right)}` tests "
                            "exact equality of virtual-time floats; accumulated "
                            "timestamps differ by rounding, so compare with "
                            "ordering (<=) or an explicit tolerance",
                        )
                    )
                    break
        return findings


__all__ = [
    "FloatTimeEquality",
    "MUTATION_EXEMPT_SUFFIXES",
    "SHARED_STATE_ATTRS",
    "SharedStateMutation",
    "TIME_SUFFIXES",
]

"""suffixless-cost-literal: Tracer costs come from named, tunable values.

A bare number in a Tracer recording call (``tracer.host("fgrc_hit",
1_500)``) records the right cost today and silently stops following
:class:`repro.config.TimingModel`: a config that changes
``fgrc_hit_ns`` still gets 1,500 ns, and no result shows it.  The rule
flags numeric literals other than 0 and ±1 anywhere in the cost
argument of ``host``/``pcie``/``serial_nand`` (the second argument)
and ``channel`` (the third).
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules.base import SIM_PACKAGES, Rule, register

#: Tracer recording method -> position of its cost argument.
COST_ARGUMENT = {"host": 1, "pcie": 1, "serial_nand": 1, "channel": 2}


def _bare_literals(expr: ast.expr) -> list[ast.Constant]:
    return [
        node
        for node in ast.walk(expr)
        if isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value not in (0, 1)
    ]


@register
class SuffixlessCostLiteral(Rule):
    id = "suffixless-cost-literal"
    description = (
        "bare numeric literal in a Tracer recording call's cost; take it "
        "from TimingModel or name the constant (with a unit suffix)"
    )
    packages = SIM_PACKAGES

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            position = COST_ARGUMENT.get(node.func.attr)
            if position is None or len(node.args) <= position:
                continue
            cost = node.args[position]
            for literal in _bare_literals(cost):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"bare literal {literal.value!r} in the cost of "
                        f"`{node.func.attr}()`; it no longer follows the "
                        "TimingModel — take the cost from config",
                    )
                )
                break
        return findings


__all__ = ["COST_ARGUMENT", "SuffixlessCostLiteral"]

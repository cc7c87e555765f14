"""The dimensional-inference rules built on :mod:`repro.lint.units`.

``unit-suffix-consistency`` checks *names* on one operator; these rules
check what expressions *compute*, with dims propagated through locals,
attributes, helper returns, and the cross-module call graph:

- ``dimension-mismatch`` — add/sub/compare/min-max/augmented-assign
  across different dimensions (ns + bytes, count vs time), assignments
  whose target's suffix disagrees with the inferred value, and call
  arguments whose dim contradicts the callee's suffix-declared
  parameter — including through helper returns the suffix rule cannot
  see;
- ``rate-derivation`` — a ``*``/``/`` derivation bound to a name that
  declares a different unit: ``bw_bytes_per_ns = dur_ns / n_bytes`` is
  the classic bytes/ns-vs-ns/byte inversion;
- ``suffixless-cost-literal`` — a bare numeric literal flowing into a
  Tracer recording call or backend cost sink (``tracer.host("x",
  1500)``); magic costs dodge both the suffix convention and the
  TimingModel, so nothing can check them.

Judgements come from :class:`repro.lint.units.UnitAnalysis` — shared
per module via ``ctx.units``, with one walk feeding all three rules.
"""

from __future__ import annotations

from repro.lint import units as units_mod
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules.base import SIM_PACKAGES, Rule, register


class _UnitEventRule(Rule):
    """Base: report every unit judgement of one kind."""

    kind = ""
    hint = ""

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for event in ctx.units.events():
            if event.kind == self.kind:
                findings.append(self.finding(ctx, event.node, event.message + self.hint))
        return findings


@register
class DimensionMismatch(_UnitEventRule):
    id = "dimension-mismatch"
    description = (
        "add/sub/compare/min-max or assignment combining different "
        "inferred dimensions (ns vs bytes vs counts), tracked through "
        "locals, attributes and helper returns"
    )
    packages = None  # dimension bugs corrupt results everywhere
    kind = units_mod.MISMATCH
    hint = "; convert explicitly or fix the operand's unit"


@register
class RateDerivation(_UnitEventRule):
    id = "rate-derivation"
    description = (
        "a * or / derivation produces a dimension other than the one "
        "the target name declares (bytes/ns vs ns/byte inversions)"
    )
    packages = None
    kind = units_mod.DERIVATION
    hint = ""


@register
class SuffixlessCostLiteral(_UnitEventRule):
    id = "suffixless-cost-literal"
    description = (
        "bare numeric literal flowing into a Tracer recording call or "
        "backend cost sink; name the constant (with a unit suffix) or take it "
        "from TimingModel"
    )
    packages = SIM_PACKAGES
    kind = units_mod.BARE_LITERAL
    hint = ""


__all__ = ["DimensionMismatch", "RateDerivation", "SuffixlessCostLiteral"]

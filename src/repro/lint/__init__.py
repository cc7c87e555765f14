"""simlint: AST-based invariant checks for the virtual-time simulator.

The reproduction's central claim — results are a deterministic function
of config + seed on a virtual clock — is a *discipline*, not a language
feature.  This package makes the discipline machine-checked:

- :mod:`repro.lint.rules` hold the nine domain rules: six
  discipline rules (``virtual-time-purity``, ``seeded-rng-only``,
  ``deterministic-iteration``,
  ``shared-state-mutation``, ``float-time-equality``,
  ``unit-suffix-consistency``) and three dimensional rules
  (``dimension-mismatch``, ``rate-derivation``,
  ``suffixless-cost-literal``);
- :mod:`repro.lint.flow` is the flow analysis behind the alias-aware
  rules: per-module kind/alias tracking plus function summaries a
  shared package index resolves across files;
  :mod:`repro.lint.units` is the dimensional analysis built on it;
- :mod:`repro.lint.engine` runs them over a file tree, honouring
  ``# simlint: allow[rule]`` suppressions and reporting allow comments
  that excuse nothing as ``unused-suppression``;
- ``python -m repro.lint`` is the CLI that CI gates on.

The static rules cover only what nothing at runtime enforces.  Order
independence is enforced by construction — contended decisions wait
for the settle phase, and :class:`repro.serve.engine.FifoResource`
rejects an unkeyed acquire while the loop runs — and checked by seeded
tie-break perturbation (:mod:`repro.sim.perturb`), which compares whole
results across shuffled same-timestamp event orders.  The sanitizer
(:mod:`repro.sim.sanitize`, ``REPRO_SANITIZE=1``) turns a lost event-loop
wakeup into an error, and the device-backend base classes check their
subclasses' surface at class creation.  See ``docs/LINTING.md``.
"""

from repro.lint.engine import lint_file, lint_source, run
from repro.lint.findings import Finding, sort_findings
from repro.lint.rules.base import RULES, Rule, register

__all__ = [
    "Finding",
    "RULES",
    "Rule",
    "lint_file",
    "lint_source",
    "register",
    "run",
    "sort_findings",
]

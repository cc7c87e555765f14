"""simlint: AST-based invariant checks for the virtual-time simulator.

The reproduction's central claim — results are a deterministic function
of config + seed on a virtual clock — is a *discipline*, not a language
feature.  This package makes the discipline machine-checked:

- :mod:`repro.lint.rules` hold the two domain rules
  (``virtual-time-purity``, ``seeded-rng-only``), each kept because a
  mutation ledger row shows a bug only it catches;
- :mod:`repro.lint.engine` runs them over a file tree, honouring
  ``# simlint: allow[rule]`` suppressions and reporting allow comments
  that excuse nothing as ``unused-suppression``;
- ``python -m repro.lint`` is the CLI that CI gates on.

The static rules cover only what nothing at runtime catches.  Golden
digests pin every system's result (twice in CI, under two fixed
``PYTHONHASHSEED`` values, so hash-ordered iteration shows), seeded
tie-break perturbation (:mod:`repro.sim.perturb`) compares whole
results across shuffled same-timestamp event orders,
:class:`repro.serve.engine.FifoResource` rejects an unkeyed acquire
while the loop runs, the sanitizer (:mod:`repro.sim.sanitize`,
``REPRO_SANITIZE=1``) turns a lost event-loop wakeup into an error,
and the device-backend base classes check their subclasses' surface at
class creation.  See ``docs/LINTING.md``.
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

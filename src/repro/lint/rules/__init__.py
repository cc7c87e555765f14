"""simlint's built-in rules.

Importing this package registers every rule in
:data:`repro.lint.rules.base.RULES`; third parties can add rules with
the same ``@register`` decorator before invoking the engine.
"""

from repro.lint.rules import rng, virtual_time  # noqa: F401  (imported for registration)
from repro.lint.rules.base import RULES, Rule, register

__all__ = ["RULES", "Rule", "register"]

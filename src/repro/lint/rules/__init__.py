"""simlint's built-in rules.

Importing this package registers every rule in
:data:`repro.lint.rules.base.RULES`; third parties can add rules with
the same ``@register`` decorator before invoking the engine.
"""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    cost_literal,
    rng,
    shared_state,
    virtual_time,
)
from repro.lint.rules.base import RULES, Rule, SIM_PACKAGES, register

__all__ = ["RULES", "Rule", "SIM_PACKAGES", "register"]

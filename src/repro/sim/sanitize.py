"""Runtime sanitizer: per-request trace invariants, checked at Tracer boundaries.

The static rules in :mod:`repro.lint` catch code that *looks* like it
bypasses the stage-trace discipline; this module catches code that
actually does.  When sanitizing is active, closing a request's root
:class:`~repro.sim.trace.StageTrace` verifies **ledger = trace sums**:
the :class:`ResourceModel` busy totals equal the charges the tracer
folded since it was attached, so nothing charged the ledger behind the
traces' back (a NaN on either side counts as a mismatch).

Two invariants hold whether or not the sanitizer is on, so it does not
re-check them:

- **well-formed stages** — :class:`~repro.sim.trace.Stage` is frozen
  and rejects a non-finite or negative duration, or a charged derived
  ``"nand"`` stage, when it is built (ambient and detached stages
  included);
- **balanced spans** — ``Tracer.end()`` without a matching ``begin``
  raises instead of corrupting the span stack.

The event loop (:class:`repro.serve.engine.EventLoop`) adds a lost-
wakeup check: at every quiescent timestamp, no settler that is not
woken may still hold work.

Two ways to switch it on:

- environment: ``REPRO_SANITIZE=1`` (CI runs the whole pytest suite
  this way);
- code: ``with SimSanitizer(): ...`` for a scoped check.

The check is O(channels) per request and skipped entirely when
inactive, so production-scale runs pay a single ``if`` per request.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import Tracer

#: Absolute slack for ledger comparisons, in nanoseconds.  Folding and
#: the mirror accumulate the same float sequence, so they agree bitwise
#: today; the tolerance keeps the check robust to refactors that batch
#: or reorder the additions.
LEDGER_TOLERANCE_NS = 1e-3


class SanitizeError(AssertionError):
    """A simulator invariant was violated at a Tracer boundary."""


_depth = 0


def _env_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in {"1", "true", "yes", "on"}


def active() -> bool:
    """Whether sanitizer checks run (env var or an open SimSanitizer)."""
    return _depth > 0 or _env_enabled()


class SimSanitizer:
    """Context manager enabling sanitizer checks for a scope.

    Nests freely, composes with ``REPRO_SANITIZE=1``, and is reentrant
    across tracers — activation is process-global because the tracers
    it guards are long-lived objects threaded through whole systems.
    """

    def __enter__(self) -> "SimSanitizer":
        global _depth
        _depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _depth
        _depth -= 1


def verify_ledger(tracer: "Tracer") -> None:
    """The resource ledger equals the charges this tracer folded."""
    resources = tracer.resources
    if resources is None:
        return
    base = tracer._ledger_base
    expected_host = base[0] + tracer._folded_host
    expected_pcie = base[1] + tracer._folded_pcie
    mismatches: list[str] = []
    # ``not ... <= tol`` so that a NaN on either side is a mismatch.
    if not abs(resources.host_busy_ns - expected_host) <= LEDGER_TOLERANCE_NS:
        mismatches.append(f"host: ledger {resources.host_busy_ns} != traced {expected_host}")
    if not abs(resources.pcie_busy_ns - expected_pcie) <= LEDGER_TOLERANCE_NS:
        mismatches.append(f"pcie: ledger {resources.pcie_busy_ns} != traced {expected_pcie}")
    for index, busy in enumerate(resources.channel_busy_ns):
        expected = (
            base[2][index] if index < len(base[2]) else 0.0
        ) + tracer._folded_channels.get(index, 0.0)
        if not abs(busy - expected) <= LEDGER_TOLERANCE_NS:
            mismatches.append(f"channel:{index}: ledger {busy} != traced {expected}")
    if mismatches:
        raise SanitizeError(
            "resource ledger diverged from recorded stage charges — "
            "something charged the ResourceModel without recording a "
            "Stage (or reset it mid-run): " + "; ".join(mismatches)
        )


__all__ = [
    "LEDGER_TOLERANCE_NS",
    "SanitizeError",
    "SimSanitizer",
    "active",
    "verify_ledger",
]

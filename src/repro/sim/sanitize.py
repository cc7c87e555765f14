"""Runtime sanitizer: the event loop's lost-wakeup check.

The golden tests run every pinned digest and run under a guard that
fails on a wall-clock read or a global ``random`` draw
(``tests/conftest.py``'s ``pure_simulation``); this module switches on
the one runtime check that is too costly to run always.  When sanitizing is
active, the event loop (:class:`repro.serve.engine.EventLoop`) checks
at every quiescent timestamp that no settler that is not woken still
holds work (a lost wakeup), and raises :class:`SanitizeError` naming
the settler.

Four invariants hold whether or not the sanitizer is on, so it does
not re-check them:

- **ledger = trace sums** — ``Tracer._record`` is the only writer of
  the :class:`~repro.sim.resources.ResourceModel` busy totals, so the
  ledger cannot drift from the recorded charges;
- **well-formed stages** — ``Tracer._record`` rejects a non-finite or
  negative duration, a charged derived ``NAND`` stage or an
  out-of-range channel index before it touches the trace or the
  ledger (ambient and detached stages included), and a recorded
  :class:`~repro.sim.trace.Stage` is frozen;
- **balanced traces** — ``Tracer.end()`` without a matching ``begin``
  raises :class:`SanitizeError` instead of corrupting the trace stack;
- **keyed FIFO admission** — :meth:`repro.serve.engine.FifoResource.acquire`
  raises ``ValueError`` on an acquire without a ``key`` while the loop
  runs, so same-timestamp contenders never queue in tie-break order.

Two ways to switch it on:

- environment: ``REPRO_SANITIZE=1`` (CI runs the whole pytest suite
  and each simbench smoke round this way);
- code: ``with SimSanitizer(): ...`` for a scoped check.

The event loop reads the switch once per ``run``.
"""

from __future__ import annotations

import os


class SanitizeError(AssertionError):
    """A simulator invariant was violated (lost wakeup, unbalanced trace)."""


_depth = 0


def _env_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in {"1", "true", "yes", "on"}


def active() -> bool:
    """Whether sanitizer checks run (env var or an open SimSanitizer)."""
    return _depth > 0 or _env_enabled()


class SimSanitizer:
    """Context manager enabling sanitizer checks for a scope.

    Nests freely, composes with ``REPRO_SANITIZE=1``, and is reentrant
    across event loops — activation is process-global because a loop
    reads it when ``run`` starts, wherever the loop was built.
    """

    def __enter__(self) -> "SimSanitizer":
        global _depth
        _depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _depth
        _depth -= 1


__all__ = ["SanitizeError", "SimSanitizer", "active"]

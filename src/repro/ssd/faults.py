"""Fault injection: transient NAND read errors and recovery.

Real NAND fails reads transiently (ECC-correctable on retry with tuned
read-reference voltages) and, rarely, hard-fails a page.  The injector
is deterministic (hash of page number and attempt count against a
seeded threshold) so tests can reproduce exact failure sequences.

The controller's sense path retries up to ``max_retries`` times, paying
tR again per attempt; an exhausted retry budget surfaces as a
:class:`NandReadError` — exercised by the failure-injection tests.
Nothing in the stack catches it yet: the error propagates out of the
request and aborts the whole run (a serving or cluster run included).
Mapping it to a failed NVMe completion is tracked as ROADMAP item 4,
"Failures become results, not crashes".
"""

from __future__ import annotations

from dataclasses import dataclass


class NandReadError(Exception):
    """A page read failed even after all retries."""

    def __init__(self, ppn: int, attempts: int) -> None:
        super().__init__(f"uncorrectable read at ppn {ppn} after {attempts} attempts")
        self.ppn = ppn
        self.attempts = attempts


def _mix(value: int) -> int:
    """SplitMix64 finalizer: cheap, well-distributed 64-bit hash."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 % (1 << 64)
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB % (1 << 64)
    return value ^ (value >> 31)


@dataclass(frozen=True)
class FaultModel:
    """Deterministic transient-read-fault injector."""

    #: Probability that one read attempt fails (0 disables injection).
    read_fault_rate: float = 0.0
    #: Retries the controller performs before declaring the read dead.
    max_retries: int = 3
    seed: int = 0xFA017

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fault_rate < 1.0:
            raise ValueError("read_fault_rate must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.read_fault_rate > 0.0

    def attempt_fails(self, ppn: int, attempt: int) -> bool:
        """Deterministically decide whether one read attempt fails."""
        if not self.enabled:
            return False
        draw = _mix(self.seed * 0x9E3779B97F4A7C15 + ppn * 1_000_003 + attempt)
        return (draw % (1 << 32)) / (1 << 32) < self.read_fault_rate

    def attempts_needed(self, ppn: int) -> int:
        """Attempts until the first success (capped at retries + 1).

        Raises :class:`NandReadError` when every allowed attempt fails.
        """
        for attempt in range(self.max_retries + 1):
            if not self.attempt_fails(ppn, attempt):
                return attempt + 1
        raise NandReadError(ppn, self.max_retries + 1)


__all__ = ["FaultModel", "NandReadError"]

"""Per-tenant QoS: token-bucket admission, priorities, queue-full policy.

Three knobs per tenant, mirroring what a production storage frontend
exposes:

- **weight** — the tenant's share under weighted-round-robin NVMe
  queue arbitration (:mod:`repro.serve.nvme_mq`);
- **rate limit** — a token bucket refilled in *virtual* time: a tenant
  configured for R ops/s never completes more than ``burst + R * t``
  operations in any window of length ``t``, regardless of load;
- **queue-full policy** — what happens when the tenant's submission
  ring is full: ``"block"`` holds the submission until a slot frees
  (back-pressure), ``"shed"`` rejects it with a typed
  :class:`AdmissionRejected` the serving layer counts per tenant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Queue-full policies.
BLOCK = "block"
SHED = "shed"


class AdmissionRejected(Exception):
    """A submission was shed by admission control (queue full)."""

    def __init__(self, tenant: str, reason: str) -> None:
        super().__init__(f"tenant {tenant!r}: {reason}")
        self.tenant = tenant
        self.reason = reason


@dataclass(frozen=True)
class TenantQoS:
    """Admission-control and arbitration parameters of one tenant."""

    #: WRR arbitration share (ignored under plain round-robin).
    weight: int = 1
    #: Maximum sustained submission rate in ops per simulated second;
    #: ``None`` disables rate limiting.
    rate_limit_qps: float | None = None
    #: Token-bucket capacity (maximum burst above the sustained rate).
    burst: int = 16
    #: Submission-queue ring depth (power of two, as NVMe requires).
    queue_depth: int = 64
    #: ``"block"`` or ``"shed"`` when the submission ring is full.
    full_policy: str = BLOCK

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.rate_limit_qps is not None and not (
            math.isfinite(self.rate_limit_qps) and self.rate_limit_qps > 0
        ):
            raise ValueError(f"invalid rate limit {self.rate_limit_qps!r}")
        if self.burst <= 0:
            raise ValueError("burst must be positive")
        if self.queue_depth < 2 or self.queue_depth & (self.queue_depth - 1):
            raise ValueError(f"queue depth must be a power of two >= 2, got {self.queue_depth}")
        if self.full_policy not in (BLOCK, SHED):
            raise ValueError(f"unknown queue-full policy {self.full_policy!r}")


#: Tolerance on "one token available".  The ready time ``take`` returns
#: is computed as deficit / rate; refilling at exactly that timestamp
#: can land at 0.999... tokens after float rounding, which would send
#: the caller into sub-nanosecond retry loops.  Treating ``1 - eps``
#: tokens as one token guarantees a retry at the ready time succeeds;
#: the admission slack this forgives is under a millionth of a token
#: per thousand grants.
TOKEN_EPSILON = 1e-9


class TokenBucket:
    """A token bucket refilled continuously on the virtual clock.

    ``take(now_ns)`` consumes one token if available; otherwise it
    returns the earliest virtual time at which a token will exist.  The
    refill is computed analytically from the last-update timestamp, so
    the bucket needs no timer events of its own.

    Of two same-timestamp ``take`` calls, whichever drains the last
    token decides which caller is delayed; a serving lane owns its
    bucket, and only that lane's drain takes from it, in backlog order.
    """

    __slots__ = ("rate_qps", "capacity", "tokens", "updated_ns")

    def __init__(self, rate_qps: float, capacity: int, *, start_ns: float = 0.0) -> None:
        if not math.isfinite(rate_qps) or rate_qps <= 0:
            raise ValueError(f"invalid bucket rate {rate_qps!r}")
        if capacity <= 0:
            raise ValueError("bucket capacity must be positive")
        self.rate_qps = rate_qps
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self.updated_ns = start_ns

    def _refill(self, now_ns: float) -> None:
        if now_ns > self.updated_ns:
            grown = (now_ns - self.updated_ns) * 1e-9 * self.rate_qps
            self.tokens = min(self.capacity, self.tokens + grown)
            self.updated_ns = now_ns

    def take(self, now_ns: float) -> float | None:
        """Consume one token; ``None`` on success, else the ready time."""
        self._refill(now_ns)
        if self.tokens >= 1.0 - TOKEN_EPSILON:
            self.tokens = max(self.tokens - 1.0, 0.0)
            return None
        deficit = 1.0 - self.tokens
        return self.updated_ns + deficit / self.rate_qps * 1e9

    def peek(self, now_ns: float) -> float:
        """Tokens available at ``now_ns`` (no consumption)."""
        self._refill(now_ns)
        return self.tokens


__all__ = ["AdmissionRejected", "BLOCK", "SHED", "TenantQoS", "TokenBucket"]

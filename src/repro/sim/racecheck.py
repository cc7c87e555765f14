"""Happens-before race detection for the virtual-time event loop.

The serving layer's determinism contract — same config + seed =>
byte-identical result — holds only if no observable state depends on
the *order* of simultaneous events.  The event loop breaks timestamp
ties by schedule sequence, which is deterministic but arbitrary: two
events at the same virtual nanosecond have no causal order unless one
(transitively) scheduled the other.  If both touch the same shared
object and their operations do not commute, the result is an artifact
of the tie-break — a **virtual-time race** that a different (equally
valid) tie-break would change.

This module is the dynamic half of the concurrency checks (the static
half is ``repro.lint``'s ``shared-state-mutation`` rule; the event
``seq`` tie-break counter is not even readable, since
:class:`repro.serve.engine.ScheduledEvent` has no such slot):

- every executed event carries a :class:`VectorClock` tracking its
  happens-before ancestry (event A precedes event B iff A transitively
  scheduled B — scheduling edges are the only synchronization a
  single-threaded virtual-time loop has);
- shared objects (submission rings, QoS buckets, stage FIFOs,
  histograms, the storage system itself) are *registered* with the
  checker, and the instrumented classes report each read/write;
- within one timestamp window, an unordered read/write or write/write
  pair whose operations do not commute raises :class:`RaceError`
  carrying **both** event stacks.

Scheduling edges form a tree (an event is scheduled by exactly one
running event), so the vector clock is stored as a parent chain:
``happens_before`` walks ancestors instead of merging integer maps,
and :meth:`VectorClock.components` materializes the classic
``event id -> count`` map on demand.

Commutativity is declared per object at registration: a
``commutes(op_a, op_b)`` predicate, or a set of operation names that
commute with themselves (e.g. histogram ``record``).  Reads never
conflict with reads.

Activation mirrors :mod:`repro.sim.sanitize`: the ``REPRO_RACECHECK=1``
environment variable, :func:`enable`/:func:`disable`, or passing an
explicit :class:`RaceChecker` to the event loop / server.

The checker sees only the schedule a run took; :func:`perturbed` is
its complement for any program that takes a ``tiebreak_seed`` (a
serving run, a cluster): it re-runs under seeded shuffles of
same-timestamp events and compares :func:`result_digest` of each.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

READ = "read"
WRITE = "write"


class RaceError(AssertionError):
    """Two unordered same-timestamp events conflicted on shared state."""


class VectorClock:
    """Happens-before timestamp of one executed event.

    Stored as a parent chain: the loop's scheduling edges form a tree,
    so ancestor walking decides ordering exactly as comparing the full
    integer vectors would, in O(depth) time and O(1) memory per event.
    """

    __slots__ = ("event_id", "parent", "depth")

    def __init__(self, event_id: int, parent: "VectorClock | None") -> None:
        self.event_id = event_id
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1

    def happens_before(self, other: "VectorClock") -> bool:
        """Whether this event is an ancestor of (or is) ``other``."""
        node: VectorClock | None = other
        while node is not None and node.depth > self.depth:
            node = node.parent
        return node is self

    def components(self) -> dict[int, int]:
        """The classic vector-clock view: ancestor event id -> 1."""
        out: dict[int, int] = {}
        node: VectorClock | None = self
        while node is not None:
            out[node.event_id] = 1
            node = node.parent
        return out


class EventInfo:
    """Identity + clock + provenance of one executed event.

    ``gen`` is the settle generation within the event's timestamp
    window: the loop's settle phase is a synchronization barrier (it
    runs only once every same-time event has drained, under *any*
    tie-break), so an access from generation *g* happens-before every
    event of generation *> g* regardless of scheduling ancestry.
    """

    __slots__ = ("clock", "time_ns", "label", "parent", "gen")

    def __init__(
        self,
        event_id: int,
        time_ns: float,
        label: str,
        parent: "EventInfo | None",
        *,
        gen: int = 0,
    ) -> None:
        self.clock = VectorClock(event_id, parent.clock if parent is not None else None)
        self.time_ns = time_ns
        self.label = label
        self.parent = parent
        self.gen = gen

    def stack(self, limit: int = 8) -> list[str]:
        """Scheduling ancestry, innermost first (like a traceback)."""
        frames: list[str] = []
        node: EventInfo | None = self
        while node is not None and len(frames) < limit:
            frames.append(f"#{node.clock.event_id} t={node.time_ns:.0f}ns {node.label}")
            node = node.parent
        if node is not None:
            frames.append("...")
        return frames


class _Access:
    __slots__ = ("event", "kind", "op")

    def __init__(self, event: EventInfo, kind: str, op: str) -> None:
        self.event = event
        self.kind = kind
        self.op = op


class _Tracked:
    __slots__ = ("obj", "name", "commutative_ops", "commutes")

    def __init__(
        self,
        obj: object,
        name: str,
        commutative_ops: frozenset[str],
        commutes: Callable[[str, str], bool] | None,
    ) -> None:
        self.obj = obj
        self.name = name
        self.commutative_ops = commutative_ops
        self.commutes = commutes

    def ops_commute(self, a: str, b: str) -> bool:
        if self.commutes is not None:
            return self.commutes(a, b)
        return a == b and a in self.commutative_ops


class RaceReport:
    """One detected virtual-time race, with both event stacks."""

    def __init__(
        self, name: str, time_ns: float, first: _Access, second: _Access
    ) -> None:
        self.name = name
        self.time_ns = time_ns
        self.first = first
        self.second = second

    def render(self) -> str:
        lines = [
            f"virtual-time race on {self.name!r} at t={self.time_ns:.0f}ns: "
            f"unordered {self.first.kind} ({self.first.op!r}) / "
            f"{self.second.kind} ({self.second.op!r}) — the (time, seq) "
            "tie-break, not causality, decides the outcome",
            "  event A:",
        ]
        lines.extend(f"    {frame}" for frame in self.first.event.stack())
        lines.append("  event B:")
        lines.extend(f"    {frame}" for frame in self.second.event.stack())
        return "\n".join(lines)


class RaceChecker:
    """Vector-clock happens-before checker for one event loop.

    Register shared objects with :meth:`track`; instrumented classes
    call :meth:`access` on every touch.  Accesses are compared within
    one timestamp window (the set of events at the current virtual
    time): pairs ordered by scheduling ancestry are fine, commuting
    operations are fine, anything else is a race.
    """

    def __init__(self, *, raise_on_race: bool = True) -> None:
        self.raise_on_race = raise_on_race
        self.races: list[RaceReport] = []
        self.events_tracked = 0
        self.accesses_checked = 0
        self._tracked: dict[int, _Tracked] = {}
        self._root = EventInfo(0, 0.0, "<run>", None)
        self._current = self._root
        self._next_id = 1
        self._gen = 0
        self._window_ns: float | None = None
        self._window: dict[int, list[_Access]] = {}

    # --- registration -------------------------------------------------
    def track(
        self,
        obj: object,
        name: str,
        *,
        commutative_ops: frozenset[str] | set[str] = frozenset(),
        commutes: Callable[[str, str], bool] | None = None,
    ) -> None:
        """Register ``obj`` as shared state named ``name``."""
        self._tracked[id(obj)] = _Tracked(obj, name, frozenset(commutative_ops), commutes)

    def tracked(self, obj: object) -> bool:
        return id(obj) in self._tracked

    # --- event lifecycle (called by the loop) -------------------------
    def current(self) -> EventInfo:
        return self._current

    def begin_event(self, time_ns: float, label: str, origin: "EventInfo | None") -> None:
        if self._window_ns is not None and time_ns > self._window_ns:
            self._window.clear()
            self._gen = 0
        self._window_ns = time_ns
        self._current = EventInfo(
            self._next_id,
            time_ns,
            label,
            origin if origin is not None else self._root,
            gen=self._gen,
        )
        self._next_id += 1
        self.events_tracked += 1

    def begin_settle(self, time_ns: float) -> None:
        """The loop entered a settle pass: a happens-before fence.

        The settle phase runs only after every event at the current
        timestamp has drained — structurally, under any tie-break — so
        it (and everything it schedules) is ordered after every access
        of the preceding wave.
        """
        self._window_ns = time_ns
        self._gen += 1
        self._current = EventInfo(
            self._next_id, time_ns, "<settle>", None, gen=self._gen
        )
        self._next_id += 1

    def end_run(self) -> None:
        """The loop returned to its caller: later accesses are ordered."""
        self._window.clear()
        self._window_ns = None
        self._gen = 0
        self._current = self._root

    # --- the check ----------------------------------------------------
    def access(self, obj: object, kind: str, op: str) -> None:
        tracked = self._tracked.get(id(obj))
        if tracked is None:
            return
        self.accesses_checked += 1
        current = self._current
        record = _Access(current, kind, op)
        window = self._window.setdefault(id(obj), [])
        for prior in window:
            if prior.event is current:
                continue  # program order within one callback
            if prior.event.gen < current.gen:
                continue  # a settle fence separates the pair
            if prior.kind == READ and kind == READ:
                continue
            if tracked.ops_commute(prior.op, op):
                continue
            if prior.event.clock.happens_before(current.clock):
                continue  # scheduling ancestry orders the pair
            report = RaceReport(tracked.name, current.time_ns, prior, record)
            self.races.append(report)
            if self.raise_on_race:
                raise RaceError(report.render())
        window.append(record)


# --- schedule perturbation --------------------------------------------


def result_digest(result: Any) -> str:
    """sha256 of a run result's canonical JSON (``result.to_dict()``)."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PerturbationReport:
    """Result of re-running one config under shuffled tie-breaks."""

    #: Digest of the unperturbed run (schedule-order tie-break).
    baseline_digest: str
    #: Tie-break seed -> digest of that perturbed run.
    digests: dict[int, str]

    @property
    def identical(self) -> bool:
        return all(digest == self.baseline_digest for digest in self.digests.values())

    @property
    def drifted(self) -> tuple[int, ...]:
        """Seeds whose perturbed run diverged from the baseline."""
        return tuple(
            seed
            for seed, digest in sorted(self.digests.items())
            if digest != self.baseline_digest
        )

    def render(self) -> str:
        verdict = "byte-identical" if self.identical else f"DRIFTED (seeds {list(self.drifted)})"
        return (
            f"tie-break perturbation: {len(self.digests)} seeds, {verdict}; "
            f"baseline sha256 {self.baseline_digest[:16]}"
        )


def perturbed(
    run: Callable[[int | None], Any], seeds: tuple[int, ...]
) -> PerturbationReport:
    """Prove (or refute) tie-break independence of one run.

    ``run(tiebreak_seed)`` builds and runs a fresh program (a serving
    run, a cluster) on a loop with that tie-break seed.  It runs once
    unperturbed (``None``: the normal ``(time, seq)`` tie-break) and
    once per seed with simultaneous events shuffled by seeded uniforms,
    comparing :func:`result_digest` of each result.  A race-free
    program is byte-identical across every seed; any drift means some
    observable state leaned on the arbitrary ordering of
    same-timestamp events.
    """
    baseline = result_digest(run(None))
    digests = {seed: result_digest(run(seed)) for seed in seeds}
    return PerturbationReport(baseline_digest=baseline, digests=digests)


# --- process-global activation (mirrors repro.sim.sanitize) -----------

_forced = 0


def _env_enabled() -> bool:
    return os.environ.get("REPRO_RACECHECK", "").strip().lower() in {"1", "true", "yes", "on"}


def active() -> bool:
    """Whether new servers/loops should attach a race checker."""
    return _forced > 0 or _env_enabled()


def enable() -> None:
    """Force race checking on for the process (CLI ``--racecheck``)."""
    global _forced
    _forced += 1


def disable() -> None:
    global _forced
    _forced = max(_forced - 1, 0)


__all__ = [
    "READ",
    "WRITE",
    "EventInfo",
    "PerturbationReport",
    "RaceChecker",
    "RaceError",
    "RaceReport",
    "VectorClock",
    "active",
    "disable",
    "enable",
    "perturbed",
    "result_digest",
]

"""Tie-break perturbation: prove a run does not lean on event order.

The serving layer's determinism contract — same config + seed =>
byte-identical result — holds only if no observable state depends on
the *order* of simultaneous events.  The event loop breaks timestamp
ties by schedule sequence, which is deterministic but arbitrary: a
different, equally valid tie-break must give the same result.

:func:`perturbed` checks exactly that for any program that takes a
``tiebreak_seed`` (a serving run, a cluster): it re-runs under seeded
shuffles of same-timestamp events and compares :func:`result_digest`
of each.  A drifted seed is reported with the first result leaf that
moved, so a failure names *what* leaned on the order, not only that
something did.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Stands in for a leaf present in only one of two compared results.
ABSENT = "<absent>"


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def tree_digest(tree: Any) -> str:
    """sha256 of a JSON tree's canonical form (keys sorted)."""
    return hashlib.sha256(_canonical(tree).encode("utf-8")).hexdigest()


def result_digest(result: Any) -> str:
    """:func:`tree_digest` of a run result's ``to_dict()``."""
    return tree_digest(result.to_dict())


def _leaves(tree: Any, path: str = "") -> Iterator[tuple[str, Any]]:
    """``(dotted path, value)`` of every leaf, dict keys in sorted order."""
    if isinstance(tree, dict):
        items: Any = ((str(key), tree[key]) for key in sorted(tree, key=str))
    elif isinstance(tree, (list, tuple)):
        items = ((str(index), item) for index, item in enumerate(tree))
    else:
        yield path, tree
        return
    for name, child in items:
        yield from _leaves(child, f"{path}.{name}" if path else name)


@dataclass(frozen=True)
class LeafDrift:
    """The first result leaf a perturbed run changed."""

    seed: int
    #: Dotted path into ``to_dict()``, e.g. ``tenants.a.mean_latency_ns``.
    path: str
    baseline: Any
    drifted: Any

    def render(self) -> str:
        return (
            f"seed {self.seed} first moved {self.path}: "
            f"{self.baseline!r} -> {self.drifted!r}"
        )


def first_drift(seed: int, baseline: Any, drifted: Any) -> LeafDrift | None:
    """The first leaf (sorted-key order) where two result trees differ."""
    base = dict(_leaves(baseline))
    other = dict(_leaves(drifted))
    for path, value in base.items():
        moved = other.get(path, ABSENT)
        # Compare as the digest does, so NaN equals NaN.
        if _canonical(moved) != _canonical(value):
            return LeafDrift(seed, path, value, moved)
    for path, value in other.items():
        if path not in base:
            return LeafDrift(seed, path, ABSENT, value)
    return None


@dataclass(frozen=True)
class PerturbationReport:
    """Result of re-running one config under shuffled tie-breaks."""

    #: Digest of the unperturbed run (schedule-order tie-break).
    baseline_digest: str
    #: Tie-break seed -> digest of that perturbed run.
    digests: dict[int, str]
    #: The first leaf the first drifted seed moved (``None`` if none).
    first: LeafDrift | None = None

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
        text = (
            f"tie-break perturbation: {len(self.digests)} seeds, {verdict}; "
            f"baseline sha256 {self.baseline_digest[:16]}"
        )
        if self.first is not None:
            text += f"; {self.first.render()}"
        return text


def perturbed(
    run: Callable[[int | None], Any], seeds: tuple[int, ...]
) -> PerturbationReport:
    """Prove (or refute) tie-break independence of one run.

    ``run(tiebreak_seed)`` builds and runs a fresh program (a serving
    run, a cluster) on a loop with that tie-break seed.  It runs once
    unperturbed (``None``: the normal ``(time, seq)`` tie-break) and
    once per seed with simultaneous events shuffled by seeded uniforms,
    comparing :func:`result_digest` of each result.  A program free of
    order dependence is byte-identical across every seed; any drift
    means some observable state leaned on the arbitrary ordering of
    same-timestamp events, and the report names the first leaf the
    first drifted seed moved.
    """
    baseline = run(None).to_dict()
    baseline_digest = tree_digest(baseline)
    digests: dict[int, str] = {}
    first: LeafDrift | None = None
    for seed in seeds:
        tree = run(seed).to_dict()
        digests[seed] = tree_digest(tree)
        if first is None and digests[seed] != baseline_digest:
            first = first_drift(seed, baseline, tree)
    return PerturbationReport(baseline_digest=baseline_digest, digests=digests, first=first)


__all__ = [
    "LeafDrift",
    "PerturbationReport",
    "first_drift",
    "perturbed",
    "result_digest",
    "tree_digest",
]

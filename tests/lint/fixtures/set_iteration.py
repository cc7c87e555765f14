"""Fixture: deterministic-iteration counterexamples (never executed)."""

import heapq


def walk(pages):
    touched = set(pages)
    for page in touched:  # expect: deterministic-iteration
        yield page
    for page in {1, 2, 3}:  # expect: deterministic-iteration
        yield page
    ordered = [p for p in frozenset(pages)]  # expect: deterministic-iteration
    yield from list(touched)  # expect: deterministic-iteration
    yield from dict.fromkeys(touched)  # expect: deterministic-iteration
    yield from sorted(touched)  # ok: sorted() pins the order
    yield ordered
    yield next(iter(touched))  # expect: deterministic-iteration


def flush(waiters, table, heap):
    by_identity = sorted(waiters, key=lambda w: id(w))  # expect: deterministic-iteration
    first = min(waiters, key=lambda w: table[id(w)])  # ok: identity-map lookup
    heapq.heappush(heap, (hash(first), first))  # expect: deterministic-iteration
    table[id(first)] = first  # ok: an identity token, not an order
    return by_identity, id(first) < 0  # expect: deterministic-iteration

"""Consistent-hash ring properties: movement bound, disjointness, seeding."""

import bisect
import hashlib
import random

import pytest

from repro.cluster.ring import HashRing

SERVERS = ("s0", "s1", "s2", "s3")


def _keys(count=2_000):
    return [f"/data/file{index % 7}@{index * 64}" for index in range(count)]


def test_validation():
    with pytest.raises(ValueError):
        HashRing(())
    with pytest.raises(ValueError):
        HashRing(("a", "a"))
    with pytest.raises(ValueError):
        HashRing(("a",), vnodes=0)
    with pytest.raises(ValueError):
        HashRing(("a",), replication=0)


def test_layout_deterministic_per_seed():
    a = HashRing(SERVERS, seed=7)
    b = HashRing(SERVERS, seed=7)
    c = HashRing(SERVERS, seed=8)
    assert a.layout_digest() == b.layout_digest()
    assert a.layout_digest() != c.layout_digest()
    keys = _keys(200)
    assert [a.replicas(k) for k in keys] == [b.replicas(k) for k in keys]


def test_replica_sets_distinct_and_sized():
    ring = HashRing(SERVERS, replication=3, seed=3)
    for key in _keys(500):
        replicas = ring.replicas(key)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        assert replicas[0] == ring.primary(key)
        for server in replicas:
            assert server in SERVERS


def test_replication_clamped_to_server_count():
    ring = HashRing(("a", "b"), replication=5, seed=1)
    for key in _keys(50):
        assert sorted(ring.replicas(key)) == ["a", "b"]


def test_join_moves_about_one_over_n():
    """Adding a server to N remaps ~1/(N+1) of the keys, not more."""
    ring = HashRing(SERVERS, vnodes=128, seed=5)
    grown = ring.with_server("s4")
    keys = _keys(4_000)
    moved = sum(1 for key in keys if ring.primary(key) != grown.primary(key))
    fraction = moved / len(keys)
    # Expectation is 1/5; vnode variance stays well inside 2x.
    assert 0.05 < fraction < 0.40
    # Every moved key moved TO the new server (minimal disruption).
    for key in keys:
        if ring.primary(key) != grown.primary(key):
            assert grown.primary(key) == "s4"


def test_leave_moves_only_the_lost_servers_keys():
    ring = HashRing(SERVERS, vnodes=128, seed=5)
    shrunk = ring.without_server("s0")
    keys = _keys(4_000)
    moved = 0
    for key in keys:
        before = ring.primary(key)
        after = shrunk.primary(key)
        if before != after:
            moved += 1
            # Only keys the removed server owned change primaries.
            assert before == "s0"
    # s0 owned ~1/4 of the keyspace.
    assert 0.10 < moved / len(keys) < 0.45
    with pytest.raises(KeyError):
        ring.without_server("nope")


def test_membership_change_returns_new_ring():
    ring = HashRing(SERVERS, seed=2)
    grown = ring.with_server("s4")
    assert ring.servers == SERVERS
    assert grown.servers == SERVERS + ("s4",)
    assert grown.vnodes == ring.vnodes
    assert grown.seed == ring.seed


def _clockwise_walk(ring):
    """A lookup by a plain clockwise walk over the ring's vnode points."""
    points = sorted(
        (
            int.from_bytes(
                hashlib.sha256(f"{ring.seed}:{server}:{index}".encode()).digest()[:8], "big"
            ),
            server,
        )
        for server in ring.servers
        for index in range(ring.vnodes)
    )
    positions = [position for position, _ in points]
    want = min(ring.replication, len(ring.servers))

    def walk(key):
        start = bisect.bisect_right(positions, ring.key_position(key))
        found = []
        for step in range(len(points)):
            owner = points[(start + step) % len(points)][1]
            if owner not in found:
                found.append(owner)
                if len(found) == want:
                    break
        return tuple(found)

    return walk


@pytest.mark.parametrize(
    ("servers", "replication", "vnodes"),
    [
        (SERVERS, 2, 64),
        (SERVERS, 1, 16),
        (("a", "b", "c"), 3, 8),
        (("a", "b"), 5, 4),
        (("a",), 2, 3),
    ],
)
def test_replicas_match_a_clockwise_walk(servers, replication, vnodes):
    rng = random.Random(5)
    base = HashRing(servers, replication=replication, vnodes=vnodes, seed=2)
    rings = [base, base.with_server("joined")]
    if len(servers) > 1:
        rings.append(base.without_server(servers[0]))
    keys = [f"/data/file{rng.randrange(9)}@{rng.getrandbits(40)}" for _ in range(10_000)]
    for ring in rings:
        walk = _clockwise_walk(ring)
        for key in keys:
            assert ring.replicas(key) == walk(key), key

"""Consistent-hash ring with virtual nodes and replica sets.

The router shards the fine-grained cache keyspace by record key (the
``path@offset`` of each tiny object).  Each server owns ``vnodes``
points on a 64-bit hash circle; a key is served by the first
``replication`` *distinct* servers found walking clockwise from the
key's hash.  The classic properties this buys — and the ring tests pin
down — are:

- **bounded movement**: adding or removing one of N servers remaps
  about ``1/N`` of the keyspace (only arcs adjacent to the changed
  server's vnode points move);
- **disjoint replica sets**: the replica walk skips duplicate servers,
  so a key's copies land on ``min(replication, servers)`` distinct
  machines;
- **seeded layout**: vnode positions are derived from
  ``sha256(f"{seed}:{server}:{index}")`` — no ``PYTHONHASHSEED``
  dependence, same seed same layout, different seed different layout.
"""

from __future__ import annotations

import bisect
import hashlib


def _hash64(token: str) -> int:
    """Stable 64-bit position on the circle (sha256 prefix)."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Immutable consistent-hash ring: servers x vnodes -> circle points."""

    __slots__ = ("servers", "vnodes", "replication", "seed", "_points", "_owners", "_arcs")

    def __init__(
        self,
        servers: tuple[str, ...] | list[str],
        *,
        vnodes: int = 64,
        replication: int = 2,
        seed: int = 0,
    ) -> None:
        servers = tuple(servers)
        if not servers:
            raise ValueError("a ring needs at least one server")
        if len(set(servers)) != len(servers):
            raise ValueError(f"duplicate server names in {servers!r}")
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        self.servers = servers
        self.vnodes = vnodes
        self.replication = replication
        self.seed = seed
        pairs: list[tuple[int, str]] = []
        for server in servers:
            for index in range(vnodes):
                position = _hash64(f"{seed}:{server}:{index}")
                pairs.append((position, server))
        # Ties on a 64-bit circle are astronomically unlikely; resolve
        # them by server name so the layout stays total-ordered anyway.
        pairs.sort()
        self._points = [position for position, _ in pairs]
        self._owners = [server for _, server in pairs]
        self._arcs = self._replica_table()

    def _replica_table(self) -> list[tuple[str, ...]]:
        """The replica tuple of every arc, plus the wrap-around arc.

        Entry ``i`` serves keys that bisect to point ``i``: the first
        ``min(replication, servers)`` distinct owners walking clockwise
        from point ``i``.  Walking from point ``i`` finds ``owner[i]``
        and then the walk from ``i + 1`` without ``owner[i]``, so one
        counter-clockwise pass builds the table from one full walk.
        """
        owners = self._owners
        total = len(owners)
        want = min(self.replication, len(self.servers))
        found: list[str] = []
        for step in range(total):
            owner = owners[step]
            if owner not in found:
                found.append(owner)
                if len(found) == want:
                    break
        arcs: list[tuple[str, ...]] = [()] * (total + 1)
        arcs[0] = arcs[total] = following = tuple(found)
        for index in range(total - 1, 0, -1):
            owner = owners[index]
            following = (owner,) + tuple(
                server for server in following if server != owner
            )[: want - 1]
            arcs[index] = following
        return arcs

    # --- lookup -------------------------------------------------------
    def key_position(self, key: str) -> int:
        """The key's (seed-independent) position on the circle."""
        return _hash64(key)

    def replicas(self, key: str) -> tuple[str, ...]:
        """Distinct servers owning ``key``, primary first.

        The first ``replication`` distinct servers (or every server)
        walking clockwise from the key's hash, skipping vnode points of
        servers already collected.  Every arc's walk is precomputed
        when the ring is built, so a lookup is a hash and a bisect.
        """
        return self._arcs[bisect.bisect_right(self._points, _hash64(key))]

    def primary(self, key: str) -> str:
        return self.replicas(key)[0]

    # --- membership changes (new rings; the layout is immutable) ------
    def with_server(self, server: str) -> "HashRing":
        """A new ring with ``server`` joined (same vnodes/seed)."""
        return HashRing(
            self.servers + (server,),
            vnodes=self.vnodes,
            replication=self.replication,
            seed=self.seed,
        )

    def without_server(self, server: str) -> "HashRing":
        """A new ring with ``server`` removed (same vnodes/seed)."""
        if server not in self.servers:
            raise KeyError(server)
        remaining = tuple(name for name in self.servers if name != server)
        return HashRing(
            remaining,
            vnodes=self.vnodes,
            replication=self.replication,
            seed=self.seed,
        )

    def layout_digest(self) -> str:
        """Stable fingerprint of the full vnode layout (test hook)."""
        payload = ";".join(
            f"{position}:{owner}"
            for position, owner in zip(self._points, self._owners)
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


__all__ = ["HashRing"]

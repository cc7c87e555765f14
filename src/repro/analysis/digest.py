"""Byte-exact run digests: the regression anchor for model refactors.

A digest runs one deterministic operation mix against a freshly built
system and hashes *everything* the simulation produces — per-request
queueing demands, the resource ledger, the traffic meter, the latency
distribution, the stage anatomy, and the cache statistics — into one
sha256.  Two code versions that produce the same digest are
behaviourally indistinguishable for that system; any change to stage
recording, timing arithmetic, placement decisions, or iteration order
shows up as a different hash.

This is the safety net behind model refactors: every system's digest
on each fabric (:mod:`repro.ssd.fabric`) is pinned in
``tests/integration/test_golden_digest.py``, the ``pcie_gen3`` ones
since before the fabrics existed.

Floats are serialized with ``repr`` (shortest round-trip form), so the
digest is sensitive to any bit-level drift, not just formatting-sized
differences.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.config import SimConfig
from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.system import StorageSystem, build_system

#: File used by the digest workload.
DIGEST_FILE = "/digest/workload.bin"
#: File size: spans many flash pages, small enough to run in seconds.
DIGEST_FILE_BYTES = 1024 * 1024
#: Operations per digest run.
DIGEST_OPS = 300
#: Request sizes drawn by the digest workload (fine and block sized).
DIGEST_SIZES = (8, 16, 32, 64, 100, 128, 256, 512, 1024, 2048, 4096, 8192)


def digest_config(**overrides: object) -> SimConfig:
    """The small, fully featured configuration every digest run uses."""
    from repro.config import KIB, MIB, CacheConfig, SSDSpec

    cache = CacheConfig(
        shared_memory_bytes=1 * MIB,
        fgrc_bytes=512 * KIB,
        tempbuf_bytes=64 * KIB,
        info_area_entries=256,
    )
    spec = SSDSpec(capacity_bytes=256 * MIB, mapping_region_bytes=2 * MIB)
    base = SimConfig(ssd=spec, cache=cache, transfer_data=True)
    if overrides:
        base = base.scaled(**overrides)
    return base


def _run_digest_workload(system: StorageSystem, *, seed: int) -> None:
    """Drive the deterministic op mix: reads with reuse, small writes.

    Each read's demand is appended to ``system.demands`` for the
    fingerprint.
    """
    system.create_file(DIGEST_FILE, DIGEST_FILE_BYTES)
    fd = system.open(DIGEST_FILE, O_RDWR | O_FINE_GRAINED)
    rng = random.Random(seed)
    recent: list[tuple[int, int]] = []
    for _ in range(DIGEST_OPS):
        roll = rng.random()
        if roll < 0.10:
            # Small write: exercises invalidation and the write paths.
            size = rng.choice((16, 64, 256))
            offset = rng.randrange(0, DIGEST_FILE_BYTES - size)
            pattern = bytes((rng.randrange(256),)) * size
            system.write(fd, offset, pattern)
        elif roll < 0.35 and recent:
            # Repeat a previous range: exercises cache hits/promotion.
            offset, size = rng.choice(recent)
            system.read(fd, offset, size)
            system.demands.append(system.last_demand)
        else:
            size = rng.choice(DIGEST_SIZES)
            offset = rng.randrange(0, DIGEST_FILE_BYTES - size)
            system.read(fd, offset, size)
            system.demands.append(system.last_demand)
            recent.append((offset, size))
            if len(recent) > 32:
                recent.pop(0)
    system.fsync(fd)


def _canonical(value: object) -> object:
    """JSON-friendly form with full float precision (repr round-trip)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def system_fingerprint(
    system_name: str, config: SimConfig | None = None, *, seed: int = 7
) -> dict[str, object]:
    """Run the digest workload; return the full observable record."""
    system = build_system(system_name, config or digest_config())
    _run_digest_workload(system, seed=seed)
    resources = system.device.resources
    traffic = system.device.traffic
    result = system.result()
    record: dict[str, object] = {
        "system": system_name,
        "requests": result.requests,
        "ledger": {
            "host_busy_ns": resources.host_busy_ns,
            "pcie_busy_ns": resources.pcie_busy_ns,
            "channel_busy_ns": list(resources.channel_busy_ns),
        },
        "traffic": {
            "device_to_host_bytes": traffic.device_to_host_bytes,
            "host_to_device_bytes": traffic.host_to_device_bytes,
            "write_induced_bytes": traffic.write_induced_bytes,
            "demanded_bytes": traffic.demanded_bytes,
        },
        "latency": {
            "mean_ns": result.mean_latency_ns,
            "p50_ns": result.latency.p50_ns,
            "p99_ns": result.latency.p99_ns,
            "max_ns": result.latency.max_ns,
        },
        "stage_breakdown": result.stage_breakdown,
        "cache_stats": {
            key: value
            for key, value in result.cache_stats.items()
            if isinstance(value, (int, float))
        },
        "demands": [
            [demand.host_ns, demand.nand_ns, demand.channel, demand.pcie_ns]
            for demand in system.demands
        ],
    }
    return record


def system_digest(
    system_name: str, config: SimConfig | None = None, *, seed: int = 7
) -> str:
    """sha256 of the canonical fingerprint of one digest run."""
    record = _canonical(system_fingerprint(system_name, config, seed=seed))
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def all_digests(config: SimConfig | None = None, *, seed: int = 7) -> dict[str, str]:
    """Digest every registered system under one configuration."""
    from repro.system import available_systems

    return {
        name: system_digest(name, config, seed=seed) for name in available_systems()
    }


__all__ = [
    "DIGEST_FILE",
    "DIGEST_FILE_BYTES",
    "DIGEST_OPS",
    "all_digests",
    "digest_config",
    "system_digest",
    "system_fingerprint",
]

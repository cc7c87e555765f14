"""Golden-digest regression: every system on every fabric is pinned.

``tests/data/golden_digests.json`` holds, under ``digests``, the
digest of every registered system on the default ``pcie_gen3``
backend, captured from the pre-refactor code (before the
interconnect/placement backends existed), and under ``backends`` the
same for ``cxl_lmb`` and ``nvme_fdp``.  Any bit of drift in stage
recording, timing arithmetic, placement decisions or iteration order
fails here.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.integration.test_golden_digest``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis.digest import all_digests, digest_config, system_digest
from repro.system import available_systems

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / "data" / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_registered_system():
    assert sorted(GOLDEN["digests"]) == sorted(available_systems())


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_pcie_gen3_matches_pre_refactor_seed(name):
    config = digest_config()
    assert config.backend == "pcie_gen3"
    digest = system_digest(name, config, seed=GOLDEN["seed"])
    assert digest == GOLDEN["digests"][name], (
        f"{name} diverged from the pre-refactor golden digest on the "
        f"pcie_gen3 backend — the refactor changed observable behaviour"
    )


#: The alternative fabrics pinned under ``backends``.
PINNED_BACKENDS = ("cxl_lmb", "nvme_fdp")


def test_backend_pins_cover_every_registered_system():
    assert sorted(GOLDEN["backends"]) == sorted(PINNED_BACKENDS)
    for backend in PINNED_BACKENDS:
        assert sorted(GOLDEN["backends"][backend]) == sorted(available_systems())


@pytest.mark.parametrize("backend", PINNED_BACKENDS)
@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_new_backends_are_deterministic(backend, name):
    """Each alternative fabric reproduces the digest pinned for it:
    the same config gives the same digest across runs and versions."""
    digest = system_digest(name, digest_config(backend=backend), seed=GOLDEN["seed"])
    assert digest == GOLDEN["backends"][backend][name], (
        f"{name} on {backend} diverged from its pinned digest: a change "
        "moved this fabric's costs or placement accounting"
    )


def test_cxl_lmb_diverges_from_pcie_gen3():
    """The coherent fabric must actually change the timing model."""
    pcie = system_digest("2b-ssd-dma", digest_config(), seed=GOLDEN["seed"])
    cxl = system_digest("2b-ssd-dma", digest_config(backend="cxl_lmb"), seed=GOLDEN["seed"])
    assert pcie != cxl


def test_nvme_fdp_is_transport_identical_but_reports_placement():
    """FDP keeps the PCIe transport: latencies match, stats differ."""
    from repro.analysis.digest import system_fingerprint

    pcie = system_fingerprint("pipette", digest_config(), seed=GOLDEN["seed"])
    fdp = system_fingerprint(
        "pipette", digest_config(backend="nvme_fdp"), seed=GOLDEN["seed"]
    )
    assert fdp["latency"] == pcie["latency"]
    assert fdp["ledger"] == pcie["ledger"]
    assert fdp["traffic"] == pcie["traffic"]
    fdp_keys = [key for key in fdp["cache_stats"] if key.startswith("fdp_")]
    assert fdp_keys, "nvme_fdp backend should report per-handle placement stats"
    assert not any(key.startswith("fdp_") for key in pcie["cache_stats"])


def _regenerate() -> dict[str, object]:
    seed = GOLDEN["seed"]
    return {
        "backends": {
            backend: all_digests(digest_config(backend=backend), seed=seed)
            for backend in PINNED_BACKENDS
        },
        "digests": all_digests(digest_config(), seed=seed),
        "seed": seed,
    }


if __name__ == "__main__":
    print(json.dumps(_regenerate(), indent=2, sort_keys=True))

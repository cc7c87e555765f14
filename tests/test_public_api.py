"""The documented public API surface must stay importable and stable."""

import subprocess
import sys
from pathlib import Path

import repro

SUBPACKAGES = (
    "sim",
    "serve",
    "cluster",
    "ssd",
    "kernel",
    "core",
    "baselines",
    "workloads",
    "analysis",
    "experiments",
)

#: Imports each subpackage from a clean ``sys.modules`` under a stub
#: ``repro`` package, so ``repro/__init__``'s import order cannot hide
#: an import cycle; prints one line per subpackage that fails.
_STANDALONE_IMPORTS = """
import importlib, sys, types
for name in sys.argv[2:]:
    for key in [key for key in sys.modules if key.split(".")[0] == "repro"]:
        del sys.modules[key]
    stub = types.ModuleType("repro")
    stub.__path__ = [sys.argv[1]]
    sys.modules["repro"] = stub
    try:
        importlib.import_module("repro." + name)
    except Exception as exc:
        print(f"repro.{name}: {exc!r}")
"""


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_present():
    assert repro.__version__


def test_build_system_factory():
    from repro import SimConfig, build_system
    from repro.system import available_systems

    names = available_systems()
    # The paper's five systems plus the two extension variants.
    for expected in (
        "block-io",
        "2b-ssd-mmio",
        "2b-ssd-dma",
        "pipette-nocache",
        "pipette",
        "pipette-cmb",
        "pipette-rw",
    ):
        assert expected in names
    system = build_system("pipette", SimConfig())
    assert system.NAME == "pipette"


def test_subpackage_facades_import():
    import repro.analysis
    import repro.baselines
    import repro.core
    import repro.experiments
    import repro.kernel
    import repro.sim
    import repro.ssd
    import repro.workloads

    assert repro.ssd.SSDDevice
    assert repro.workloads.synthetic_trace
    assert repro.analysis.text_table
    assert repro.sim.ResourceModel


def test_every_subpackage_imports_on_its_own():
    package_dir = str(Path(repro.__file__).parent)
    result = subprocess.run(
        [sys.executable, "-c", _STANDALONE_IMPORTS, package_dir, *SUBPACKAGES],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "", result.stdout


def test_duplicate_registration_rejected():
    import pytest

    from repro.system import StorageSystem, register_system

    class Clone(StorageSystem):
        NAME = "pipette"  # collides

        def _read(self, entry, offset, size):  # pragma: no cover
            raise NotImplementedError

        def _write(self, entry, offset, data):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(ValueError):
        register_system(Clone)

"""Provisioned device memory costs nothing until it is touched.

Every device provisions a Host Memory Buffer mapping region (64 MiB
by default, ~97 MiB at the ``paper`` scale) and a controller memory
buffer.  Without payload transfer nothing writes to them, so building
a system must not grow the process's resident memory by their size.
Likewise, pages written back without a payload all share one zero
page, so the flash array keeps no 4 KiB copy per programmed page.

``ru_maxrss`` is a process-wide high-water mark, so each case runs in
a fresh interpreter and measures the growth from just before the build
to just after it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

_MEASURE = textwrap.dedent(
    """
    import resource

    from repro.cluster import ClusterConfig
    from repro.cluster.cluster import Cluster
    from repro.config import MIB
    from repro.experiments.scale import get_scale
    from repro.kernel.vfs import O_RDWR
    from repro.serve.server import TenantSpec
    from repro.system import build_system
    from repro.workloads.synthetic import SyntheticConfig, synthetic_trace

    def build_cluster():
        trace = synthetic_trace(SyntheticConfig(requests=100, file_size=1 * MIB, seed=1))
        config = ClusterConfig(tenants=(TenantSpec("alpha", trace, max_ops=100),), servers=4)
        sim_config = get_scale("small").sim_config()
        return lambda: Cluster(config, sim_config)

    def build_paper_system():
        sim_config = get_scale("paper").sim_config()
        return lambda: build_system("pipette", sim_config)

    def write_back(pages):
        # Full-page writes without payload through a 4 MiB page cache:
        # evictions and the final fsync flush every page.
        system = build_system("block-io", get_scale("small").sim_config())
        page = system.fs.page_size
        system.create_file("/data/flush.bin", pages * page)
        fd = system.open("/data/flush.bin", O_RDWR)
        zeros = bytes(page)

        def run():
            for index in range(pages):
                system.write(fd, index * page, zeros)
            system.fsync(fd)
            return system

        return run

    build = {case}
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    built = build()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print((after - before) / 1024)
    """
)


def _growth_mib(case: str) -> float:
    """Peak-RSS growth (MiB) of one ``case()`` run in a fresh interpreter.

    ``case`` is a call that returns the thunk to measure (Linux KiB units).
    """
    completed = subprocess.run(
        [sys.executable, "-c", _MEASURE.format(case=case)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return float(completed.stdout.split()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
@pytest.mark.parametrize(
    ("case", "bound_mib"),
    [("build_cluster", 16.0), ("build_paper_system", 8.0)],
)
def test_build_grows_peak_rss_by_less_than(case, bound_mib):
    assert _growth_mib(f"{case}()") < bound_mib


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_payload_less_write_back_stays_flat_when_pages_double():
    # A fresh zero page per flushed page would add 16 MiB here.
    growth = _growth_mib("write_back(8192)") - _growth_mib("write_back(4096)")
    assert growth < 4.0

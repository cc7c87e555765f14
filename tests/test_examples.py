"""Smoke tests: every example script must run to completion.

Each script runs as ``__main__`` inside
:func:`tests.conftest.pure_simulation`, so an example that reads a wall
clock or draws from the global ``random`` stream fails here.
"""

import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

#: ``python -c`` body: run the script named by ``argv[1]`` as a program,
#: under the same guard as the golden runs.
GUARDED_RUN = """
import runpy, sys
from tests.conftest import pure_simulation
script = sys.argv[1]
sys.argv = [script]
with pure_simulation():
    runpy.run_path(script, run_name="__main__")
"""


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, "-c", GUARDED_RUN, str(script)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must print their findings"
    if script.name == "social_graph_server.py":
        # The example also drives the multi-tenant serving layer.
        assert "Two tenants on one Pipette" in completed.stdout
        assert "frontend" in completed.stdout and "crawler" in completed.stdout

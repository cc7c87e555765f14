"""Each simlint rule catches its fixture counterexample — exactly.

Fixtures under ``fixtures/`` carry ``# expect: <rule-id>`` markers on
every line a finding must anchor to; the tests diff the engine's
(line, rule) pairs against the markers, so both false negatives *and*
false positives fail.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.engine import lint_file, lint_source
from repro.lint.rules.base import RULES

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the rule whose counterexample it is.
FIXTURE_RULES = {
    "wallclock.py": "virtual-time-purity",
    "unseeded_rng.py": "seeded-rng-only",
    "aliased_rng.py": "seeded-rng-only",
    "clean.py": None,
}


#: fixture *package* -> rules whose counterexamples span its modules
#: (a helper in one module, the call that hands it the global RNG in
#: another).
PACKAGE_FIXTURE_RULES = {
    "flowpkg": {"seeded-rng-only"},
}


def expected_findings(path: Path) -> list[tuple[int, str]]:
    expected: list[tuple[int, str]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if "# expect:" in line:
            for rule in line.split("# expect:", 1)[1].split(","):
                expected.append((lineno, rule.strip()))
    return sorted(expected)


def test_every_fixture_is_tested() -> None:
    on_disk = {path.name for path in FIXTURES.glob("*.py")}
    assert on_disk == set(FIXTURE_RULES)


def test_every_rule_has_a_fixture() -> None:
    single = {rule for rule in FIXTURE_RULES.values() if rule}
    packaged = set().union(*PACKAGE_FIXTURE_RULES.values())
    assert set(RULES) == single | packaged


def test_package_fixtures_mark_their_rules() -> None:
    # The declared rule sets stay honest: every rule claimed for a
    # package fixture has at least one ``# expect:`` marker inside it.
    for package, rules in PACKAGE_FIXTURE_RULES.items():
        marked: set[str] = set()
        for path in (FIXTURES / package).glob("*.py"):
            for _, rule in expected_findings(path):
                marked.add(rule)
        assert rules <= marked, f"{package} lacks markers for {rules - marked}"


@pytest.mark.parametrize("name", sorted(FIXTURE_RULES))
def test_fixture_findings_match_markers(name: str) -> None:
    path = FIXTURES / name
    found = sorted((f.line, f.rule) for f in lint_file(path))
    assert found == expected_findings(path)


@pytest.mark.parametrize(
    "name,rule", [(n, r) for n, r in FIXTURE_RULES.items() if r is not None]
)
def test_rule_catches_its_counterexample(name: str, rule: str) -> None:
    findings = lint_file(FIXTURES / name, rules=[RULES[rule]])
    assert findings, f"{rule} found nothing in {name}"
    assert {f.rule for f in findings} == {rule}


# --- targeted edge cases the fixtures keep implicit -------------------


def test_serve_package_globals_still_enforced() -> None:
    # Every rule applies everywhere: a wall-clock read or an unseeded
    # RNG in the serving layer is flagged like anywhere else.
    source = "import time\n\ndef f():\n    return time.time()\n"
    findings = lint_source(source, "src/repro/serve/thing.py")
    assert {f.rule for f in findings} == {"virtual-time-purity"}
    source = "import random\n\ndef f():\n    return random.random()\n"
    findings = lint_source(source, "src/repro/serve/thing.py")
    assert "seeded-rng-only" in {f.rule for f in findings}


def test_aliased_time_import_still_flagged() -> None:
    source = "import time as walltime\n\ndef f():\n    return walltime.time()\n"
    findings = lint_source(source, "src/repro/sim/thing.py")
    assert [(f.line, f.rule) for f in findings] == [(4, "virtual-time-purity")]


def test_seeded_numpy_generator_is_clean() -> None:
    source = (
        "import numpy as np\n\n"
        "def f(seed):\n"
        "    return np.random.default_rng(seed).integers(10)\n"
    )
    assert not lint_source(source, "src/repro/workloads/thing.py")


def test_syntax_error_becomes_finding() -> None:
    findings = lint_source("def broken(:\n", "bad.py")
    assert [f.rule for f in findings] == ["syntax-error"]


def test_cross_module_sinks_resolve_through_the_package_index() -> None:
    """A directory run flags the call in ``user.py`` that hands the
    global ``random`` module to a helper defined in ``helpers.py``:
    passing the module to any call is the violation, so no call graph
    is needed.  The helper itself, which draws from its parameter, is
    clean."""
    from repro.lint.engine import run as engine_run

    package = FIXTURES / "flowpkg"
    findings = engine_run([package])
    found = sorted(
        (f.line, f.rule) for f in findings if f.path.endswith("user.py")
    )
    assert found == expected_findings(package / "user.py")
    assert not [f for f in findings if f.path.endswith("helpers.py")]

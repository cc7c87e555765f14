"""simlint v3: the dimensional analysis and its three rules.

The top-level fixtures pin the single-module behaviour (see
``test_rules.py``); these tests cover the cross-module half — dims
flowing through the engine's shared module index — plus the algebra.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import lint_file, lint_source
from repro.lint.engine import run as engine_run
from repro.lint.rules.base import RULES
from repro.lint.units import INV_RATE, RATE, SCALAR, SIZE, TIME, dim_of_identifier
from tests.lint.test_rules import expected_findings

FIXTURES = Path(__file__).parent / "fixtures"


# --- the algebra ------------------------------------------------------


def test_dimension_algebra() -> None:
    assert SIZE / TIME == RATE
    assert TIME / SIZE == INV_RATE
    assert SCALAR * SIZE == SIZE
    assert SIZE / RATE == TIME  # bytes / (bytes/ns) is a duration


def test_suffix_conventions() -> None:
    assert dim_of_identifier("bw_bytes_per_ns") == RATE
    assert dim_of_identifier("cost_ns_per_byte") == INV_RATE
    assert dim_of_identifier("victim_pages") == SCALAR
    assert dim_of_identifier("hit_ratio") == SCALAR
    assert dim_of_identifier("payload") is None


def test_string_annotation_pins_a_dim() -> None:
    source = (
        "def f(raw, n_bytes):\n"
        '    budget: "ns" = raw\n'
        "    return budget + n_bytes\n"
    )
    findings = lint_source(source, "x.py")
    assert [f.rule for f in findings] == ["dimension-mismatch"]


def test_counts_are_pure_numbers_under_multiplication() -> None:
    source = "def f(n_pages, page_size_bytes):\n    total_bytes = n_pages * page_size_bytes\n"
    assert not lint_source(source, "x.py")


def test_scale_conversions_stay_the_suffix_rules_job() -> None:
    # ns vs us is one dimension here; only unit-suffix-consistency
    # reports the missing factor — never both rules at once.
    source = "def f(delta_ns, delta_us):\n    return delta_ns + delta_us\n"
    findings = lint_source(source, "x.py")
    assert [f.rule for f in findings] == ["unit-suffix-consistency"]


def test_cost_sink_shape_disambiguation() -> None:
    # Only the Tracer's labelled shape is a cost sink: the duration
    # follows the stage name.  An unlabelled ``host(...)`` is some
    # other API, so its literal is not a cost.
    rule = [RULES["suffixless-cost-literal"]]
    labelled = "def f(tracer, cost):\n    tracer.host(\"x\", cost + 900)\n"
    findings = lint_source(labelled, "x.py", rules=rule)
    assert [f.rule for f in findings] == ["suffixless-cost-literal"]
    unlabelled = "def f(model, cost):\n    model.host(cost + 900)\n"
    assert not lint_source(unlabelled, "x.py", rules=rule)


# --- cross-module inference (the unitspkg fixture package) ------------


def test_unitspkg_cross_module_findings_match_markers() -> None:
    package = FIXTURES / "unitspkg"
    findings = engine_run([package])
    by_file: dict[str, list[tuple[int, str]]] = {}
    for finding in findings:
        by_file.setdefault(Path(finding.path).name, []).append((finding.line, finding.rule))
    assert sorted(by_file.get("user.py", [])) == expected_findings(package / "user.py")
    # The helpers are dimensionally consistent.
    assert "helpers.py" not in by_file


def test_unitspkg_degrades_without_the_index() -> None:
    # Single-file runs have no module index.  The judgements that only
    # need the callee's *name* (``sense_cost_ns`` declares its return)
    # survive; the two that need helpers.py's summaries — the flipped
    # argument (line 9, param dims) and the suffixless helper's
    # inferred return (line 11) — vanish because unknown widens
    # silently instead of guessing.
    findings = lint_file(FIXTURES / "unitspkg" / "user.py")
    assert sorted((f.line, f.rule) for f in findings) == [
        (8, "dimension-mismatch"),
        (10, "rate-derivation"),
        (12, "suffixless-cost-literal"),
    ]

"""The static racecheck: phase classification + the four phase rules.

Three layers of evidence:

- the ``phasepkg`` fixture package pins every rule to exact
  (file, line) markers, including a wave -> helper -> mutation chain
  that crosses a module boundary and a correctly-settled negative;
- classification spot-checks over the *real* tree keep the reachability
  analysis honest (a vacuous index would classify nothing);
- the declaration-mutation test proves ``commutativity-decl-mismatch``
  end-to-end: widening a real ``commutative_ops`` declaration in a
  copy of ``src/repro/serve`` must produce a finding.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.lint.context import ModuleContext
from repro.lint.engine import iter_python_files, link_contexts, run

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

PHASE_RULES = [
    "wave-phase-shared-mutation",
    "commutativity-decl-mismatch",
    "racecheck-instrumentation-gap",
    "unstable-order-key",
]


def expected_findings(path: Path) -> list[tuple[str, int, str]]:
    expected: list[tuple[str, int, str]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if "# expect:" in line:
            for rule in line.split("# expect:", 1)[1].split(","):
                expected.append((path.name, lineno, rule.strip()))
    return expected


def test_phasepkg_findings_match_markers() -> None:
    package = FIXTURES / "phasepkg"
    found = sorted(
        (Path(f.path).name, f.line, f.rule)
        for f in run([package], rule_ids=PHASE_RULES)
    )
    expected = sorted(
        marker
        for path in sorted(package.glob("*.py"))
        for marker in expected_findings(path)
    )
    assert found == expected


def test_phasepkg_settled_module_is_clean() -> None:
    package = FIXTURES / "phasepkg"
    findings = [
        f for f in run([package], rule_ids=PHASE_RULES)
        if Path(f.path).name == "settled.py"
    ]
    assert findings == []


def test_cross_module_chain_names_the_wave_root() -> None:
    package = FIXTURES / "phasepkg"
    [finding] = [
        f
        for f in run([package], rule_ids=["wave-phase-shared-mutation"])
        if Path(f.path).name == "helpers.py"
    ]
    # The witness chain starts at the scheduled callback in server.py,
    # two modules away from the mutation it reaches.
    assert "on_request" in finding.message
    assert "pop_ring" in finding.message


def _real_tree_index():
    paths = [REPO_SRC / "serve", REPO_SRC / "sim", REPO_SRC / "cluster"]
    contexts = [
        ModuleContext.parse(str(path), path.read_text())
        for path in iter_python_files(paths)
    ]
    link_contexts(contexts)
    return contexts[0].phases.linked()


def test_real_tree_phase_classification() -> None:
    index = _real_tree_index()
    # Completion callbacks scheduled on the loop run during waves ...
    assert index.phase("repro.serve.server.StorageServer._complete") == "wave"
    assert index.phase("repro.cluster.node.ClusterNode._complete") == "wave"
    assert index.phase("repro.sim.queueing.StagePipeline.submit.<locals>.on_nand") == "wave"
    # ... settlers (and code only they reach) run in the settle phase ...
    assert index.phase("repro.serve.engine.FifoResource._settle") == "settle"
    assert index.phase("repro.serve.server.ServerCore._pump_now") == "settle"
    assert index.phase("repro.serve.server.ServerCore._execute") == "settle"
    assert index.phase("repro.cluster.node.ClusterNode._dispatch") == "settle"
    # ... and entry points reachable from both sides classify as both.
    assert index.phase("repro.serve.engine.FifoResource.acquire") == "both"
    # Unreached helpers stay unclassified instead of defaulting to wave.
    assert index.phase("repro.sim.no_such_function") is None


def test_real_tree_instrumentation_coverage() -> None:
    index = _real_tree_index()
    # Every shared kind the serving layer mutates is registered with the
    # dynamic checker somewhere in serve/cluster (the zero-finding CI
    # gate depends on exactly this).
    assert {"fifo", "ring", "token-bucket", "histogram"} <= index.tracked_kinds
    # Self-instrumenting classes report their own accesses.
    assert "FifoResource" in index.instrumented_classes


def test_real_tree_has_no_phase_findings() -> None:
    # The self-run that drove this PR's fixes: the four rules stay
    # clean over the serving stack.
    findings = run(
        [REPO_SRC / "serve", REPO_SRC / "sim", REPO_SRC / "cluster"],
        rule_ids=PHASE_RULES,
    )
    assert findings == []


def test_widened_commutativity_declaration_is_caught(tmp_path) -> None:
    """Mutate a real declaration: the rule must notice the over-claim."""
    copy = tmp_path / "src" / "repro" / "serve"
    shutil.copytree(REPO_SRC / "serve", copy)
    server = copy / "server.py"
    original = server.read_text()
    assert 'commutative_ops={"push"}' in original  # the real ring decl

    # Control: the unmutated copy is clean.
    assert run([copy], rule_ids=["commutativity-decl-mismatch"]) == []

    server.write_text(
        original.replace(
            'commutative_ops={"push"}', 'commutative_ops={"push", "pop"}', 1
        )
    )
    findings = run([copy], rule_ids=["commutativity-decl-mismatch"])
    assert len(findings) == 1
    assert findings[0].path.endswith("server.py")
    assert "'pop'" in findings[0].message or "pop" in findings[0].message

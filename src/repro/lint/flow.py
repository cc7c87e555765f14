"""Flow-aware symbol analysis shared by the simlint rules.

Literal attribute chains miss a ledger rebound to a local or an RNG
module handed through a helper function.  This module gives every rule
a per-module view of *what each expression refers to*:

- **kinds** — an expression may denote the resource ledger or the
  global ``random`` / ``numpy.random`` modules.  Kinds are seeded from
  imports, the ``ResourceModel(...)`` constructor and the established
  naming conventions, then propagated through assignments, tuple
  unpacking, ``self`` attributes and function return values.
- **function summaries** — for every function the analysis records
  which parameters are *sinks*: drawn from like an RNG, including
  transitively through module-local helpers.  Rules flag the **call
  site** that feeds the global RNG module into such a sink, so the
  finding lands on the code that owns the object.
- **package index** — the engine's directory runs share one
  ``module name -> summaries`` map so ``from pkg.helpers import f``
  call sites resolve across files (one hop; summaries themselves stay
  intra-module).

The analysis is deliberately approximate: flow-insensitive within a
scope (two passes so late aliases still resolve), no container
tracking, and ``self.method(...)`` resolves by bare name within the
module.  Approximations only widen *detection*, never exemptions — a
kind the analysis misses degrades to the old literal-chain behaviour.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

# --- kinds an expression can denote -----------------------------------
LEDGER = "ledger"
RANDOM_MODULE = "random-module"
NUMPY_MODULE = "numpy-module"
NUMPY_RANDOM_MODULE = "numpy-random-module"

#: Conventional names that identify the ledger even without visible
#: construction.
LEDGER_NAMES = frozenset({"resources", "ledger", "resource_model"})

#: Constructor call names whose result has a known kind.
CONSTRUCTOR_KINDS = {"ResourceModel": LEDGER}

# --- parameter sinks recorded in function summaries -------------------
SINK_RNG_DRAW = "rng-draw"

#: Drawing methods shared by ``random.Random`` instances and the global
#: ``random`` module — calling one through a parameter makes that
#: parameter an RNG sink (flagged only when the *module* is passed).
RNG_DRAW_METHODS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

_PARAM_PREFIX = "param:"

_EMPTY: frozenset[str] = frozenset()


@dataclass
class FunctionSummary:
    """What a function does with each of its parameters."""

    name: str
    params: tuple[str, ...]
    #: parameter name -> sink tags (``SINK_RNG_DRAW``).
    sinks: dict[str, set[str]] = field(default_factory=dict)
    #: kinds the function may return (intra-module only).
    return_kinds: set[str] = field(default_factory=set)

    def add_sink(self, param: str, tag: str) -> None:
        self.sinks.setdefault(param, set()).add(tag)


def map_call_args(
    call: ast.Call, summary: FunctionSummary, skip: int = 0
) -> Iterator[tuple[ast.expr, str]]:
    """Pair each call argument with the parameter it binds to.

    ``skip`` drops leading parameters (the implicit ``self`` of a
    method resolved through an attribute call).  Starred arguments end
    positional matching; unknown keywords are ignored.
    """
    params = summary.params[skip:]
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(params):
            yield arg, params[index]
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in summary.params:
            yield keyword.value, keyword.arg


_SCOPE_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class FlowAnalysis:
    """Alias/kind tracking plus function summaries for one module."""

    def __init__(
        self,
        tree: ast.Module,
        *,
        module_name: str = "",
        package_index: dict[str, dict[str, FunctionSummary]] | None = None,
    ) -> None:
        self.tree = tree
        self.module_name = module_name
        #: ``module name -> {function name -> summary}``; the engine
        #: shares one map across a directory run for cross-module calls.
        self.package_index: dict[str, dict[str, FunctionSummary]] = package_index or {}
        self._node_kinds: dict[int, frozenset[str]] = {}
        self._import_kinds: dict[str, str] = {}
        self._imported_funcs: dict[str, tuple[str, str]] = {}
        self._functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self._self_attrs: dict[str, set[str]] = {}
        self._module_env: dict[str, frozenset[str]] = {}
        self.summaries: dict[str, FunctionSummary] = {}
        self._scan_imports()
        self._collect_functions()
        self._analyze()

    # --- queries used by rules ---------------------------------------
    def kinds(self, node: ast.AST) -> frozenset[str]:
        """Kinds the expression may denote (empty set when unknown)."""
        return self._node_kinds.get(id(node), _EMPTY)

    def callee_summary(self, call: ast.Call) -> tuple[FunctionSummary, int] | None:
        """Summary of the function a call resolves to, if known.

        Returns ``(summary, skip)`` where ``skip`` is the number of
        leading parameters already bound (1 for ``self.method(...)``).
        Resolution order: module-local functions, then one-hop imports
        through the shared package index.
        """
        func = call.func
        name: str | None = None
        via_self = False
        if isinstance(func, ast.Name):
            name = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            name = func.attr
            via_self = True
        if name is None:
            return None
        summary = self.summaries.get(name)
        if summary is None:
            target = self._imported_funcs.get(name)
            if target is not None:
                module, fname = target
                table = self.package_index.get(module)
                if table is None and "." in module:
                    table = self.package_index.get(module.rsplit(".", 1)[-1])
                if table is not None and table.get(fname) is not None:
                    summary = table[fname]
        if summary is None:
            return None
        skip = 1 if via_self and summary.params[:1] in (("self",), ("cls",)) else 0
        return summary, skip

    # --- construction -------------------------------------------------
    def _scan_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    if item.name == "random":
                        self._import_kinds[local] = RANDOM_MODULE
                    elif item.name == "numpy.random" and item.asname:
                        self._import_kinds[local] = NUMPY_RANDOM_MODULE
                    elif item.name in ("numpy", "numpy.random"):
                        self._import_kinds[local] = NUMPY_MODULE
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    base = self.module_name.split(".")
                    base = base[: max(len(base) - node.level, 0)]
                    module = ".".join(base + ([module] if module else []))
                for item in node.names:
                    local = item.asname or item.name
                    if module == "numpy" and item.name == "random":
                        self._import_kinds[local] = NUMPY_RANDOM_MODULE
                    elif module and item.name != "*":
                        self._imported_funcs[local] = (module, item.name)

    def _collect_functions(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._functions[node.name] = node
        for name, node in self._functions.items():
            args = node.args
            params = tuple(
                arg.arg
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            )
            self.summaries[name] = FunctionSummary(name=name, params=params)

    def _analyze(self) -> None:
        # Two rounds so intra-module transitive sinks (helper calling
        # helper) and module-level aliases defined after use converge.
        for _ in range(2):
            self._module_env = {}
            self._run_scope(self.tree.body, self._module_env, None)
            for name, node in self._functions.items():
                summary = self.summaries[name]
                env: dict[str, frozenset[str]] = {
                    param: frozenset({_PARAM_PREFIX + param}) for param in summary.params
                }
                self._run_scope(node.body, env, summary)

    def _run_scope(
        self,
        body: list[ast.stmt],
        env: dict[str, frozenset[str]],
        summary: FunctionSummary | None,
    ) -> None:
        # Two passes per scope: aliases bound later (loop bodies, code
        # ordered after use) still resolve on the second pass.
        for _ in range(2):
            for stmt in body:
                self._exec_stmt(stmt, env, summary)

    def _exec_stmt(
        self,
        stmt: ast.stmt,
        env: dict[str, frozenset[str]],
        summary: FunctionSummary | None,
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested scope analyzed separately; decorators and defaults
            # evaluate in this scope.
            for expr in (*stmt.decorator_list, *stmt.args.defaults, *stmt.args.kw_defaults):
                if expr is not None:
                    self._record(expr, env, summary)
            return
        if isinstance(stmt, ast.ClassDef):
            for expr in (*stmt.decorator_list, *stmt.bases, *(k.value for k in stmt.keywords)):
                self._record(expr, env, summary)
            class_env = dict(env)  # class-body names are not locals
            for inner in stmt.body:
                self._exec_stmt(inner, class_env, summary)
            return
        if isinstance(stmt, ast.Assign):
            self._record(stmt.value, env, summary)
            kinds = self._expr_kinds(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, stmt.value, kinds, env, summary)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record(stmt.value, env, summary)
                kinds = self._expr_kinds(stmt.value, env)
                self._bind(stmt.target, stmt.value, kinds, env, summary)
            else:
                self._record(stmt.target, env, summary)
            return
        if isinstance(stmt, ast.AugAssign):
            self._record(stmt.target, env, summary)
            self._record(stmt.value, env, summary)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._record(stmt.value, env, summary)
                if summary is not None:
                    summary.return_kinds |= {
                        k
                        for k in self._expr_kinds(stmt.value, env)
                        if not k.startswith(_PARAM_PREFIX)
                    }
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._record(stmt.test, env, summary)
            for inner in (*stmt.body, *stmt.orelse):
                self._exec_stmt(inner, env, summary)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._record(stmt.iter, env, summary)
            for name in _target_names(stmt.target):
                env[name] = _EMPTY
            for inner in (*stmt.body, *stmt.orelse):
                self._exec_stmt(inner, env, summary)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._record(item.context_expr, env, summary)
                if item.optional_vars is not None:
                    kinds = self._expr_kinds(item.context_expr, env)
                    self._bind(item.optional_vars, item.context_expr, kinds, env, summary)
            for inner in stmt.body:
                self._exec_stmt(inner, env, summary)
            return
        if isinstance(stmt, ast.Try):
            for inner in (*stmt.body, *stmt.orelse, *stmt.finalbody):
                self._exec_stmt(inner, env, summary)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._exec_stmt(inner, env, summary)
            return
        # Simple statement: record every expression it contains.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._record(child, env, summary)

    def _bind(
        self,
        target: ast.expr,
        value: ast.expr,
        kinds: frozenset[str],
        env: dict[str, frozenset[str]],
        summary: FunctionSummary | None,
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = kinds
            return
        if isinstance(target, ast.Attribute):
            self._record(target, env, summary)
            if isinstance(target.value, ast.Name) and target.value.id in ("self", "cls"):
                if kinds:
                    self._self_attrs.setdefault(target.attr, set()).update(
                        k for k in kinds if not k.startswith(_PARAM_PREFIX)
                    )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = (
                value.elts
                if isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)
                else None
            )
            for index, element in enumerate(target.elts):
                if elements is not None:
                    self._bind(
                        element,
                        elements[index],
                        self._expr_kinds(elements[index], env),
                        env,
                        summary,
                    )
                elif isinstance(element, ast.Name):
                    env[element.id] = _EMPTY
            return
        if isinstance(target, ast.Subscript):
            self._record(target, env, summary)

    def _record(
        self,
        expr: ast.expr,
        env: dict[str, frozenset[str]],
        summary: FunctionSummary | None,
    ) -> None:
        """Annotate every sub-expression with its kinds; handle calls."""
        for node in ast.walk(expr):
            if isinstance(node, (ast.Name, ast.Attribute, ast.Call)):
                kinds = self._expr_kinds(node, env)
                if kinds:
                    self._node_kinds[id(node)] = self._node_kinds.get(id(node), _EMPTY) | kinds
            if isinstance(node, ast.Call):
                self._handle_call(node, env, summary)

    def _handle_call(
        self,
        call: ast.Call,
        env: dict[str, frozenset[str]],
        summary: FunctionSummary | None,
    ) -> None:
        if summary is None:
            return
        func = call.func
        # Direct sink: a method call through a parameter alias.
        if isinstance(func, ast.Attribute):
            receiver = self._expr_kinds(func.value, env)
            for kind in receiver:
                if not kind.startswith(_PARAM_PREFIX):
                    continue
                if func.attr in RNG_DRAW_METHODS:
                    summary.add_sink(kind[len(_PARAM_PREFIX) :], SINK_RNG_DRAW)
        # Transitive sink: the parameter is handed to a module-local
        # helper that sinks it.
        resolved = self.callee_summary(call)
        if resolved is None:
            return
        callee, skip = resolved
        for arg, param in map_call_args(call, callee, skip):
            tags = callee.sinks.get(param)
            if not tags:
                continue
            for kind in self._expr_kinds(arg, env):
                if kind.startswith(_PARAM_PREFIX):
                    for tag in tags:
                        summary.add_sink(kind[len(_PARAM_PREFIX) :], tag)

    def _expr_kinds(
        self, node: ast.expr, env: dict[str, frozenset[str]]
    ) -> frozenset[str]:
        if isinstance(node, ast.Name):
            if node.id in env:
                kinds = set(env[node.id])
            else:  # free variable: fall back to the module scope
                kinds = set(self._module_env.get(node.id, _EMPTY))
            imported = self._import_kinds.get(node.id)
            if imported is not None:
                kinds.add(imported)
            if node.id in LEDGER_NAMES:
                kinds.add(LEDGER)
            return frozenset(kinds)
        if isinstance(node, ast.Attribute):
            base = self._expr_kinds(node.value, env)
            kinds: set[str] = set()
            if NUMPY_MODULE in base and node.attr == "random":
                kinds.add(NUMPY_RANDOM_MODULE)
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                kinds |= self._self_attrs.get(node.attr, set())
            if node.attr in LEDGER_NAMES:
                kinds.add(LEDGER)
            return frozenset(kinds)
        if isinstance(node, ast.Call):
            func = node.func
            leaf = None
            if isinstance(func, ast.Name):
                leaf = func.id
            elif isinstance(func, ast.Attribute):
                leaf = func.attr
            if leaf in CONSTRUCTOR_KINDS:
                return frozenset({CONSTRUCTOR_KINDS[leaf]})
            resolved = self.callee_summary(node)
            if resolved is not None:
                return frozenset(resolved[0].return_kinds)
            return _EMPTY
        if isinstance(node, ast.IfExp):
            return self._expr_kinds(node.body, env) | self._expr_kinds(node.orelse, env)
        if isinstance(node, ast.NamedExpr):
            return self._expr_kinds(node.value, env)
        return _EMPTY


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


__all__ = [
    "CONSTRUCTOR_KINDS",
    "FlowAnalysis",
    "FunctionSummary",
    "LEDGER",
    "LEDGER_NAMES",
    "NUMPY_MODULE",
    "NUMPY_RANDOM_MODULE",
    "RANDOM_MODULE",
    "RNG_DRAW_METHODS",
    "SINK_RNG_DRAW",
    "map_call_args",
]

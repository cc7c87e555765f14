"""Static phase-discipline analysis: the "static racecheck".

The wave+settle event loop (:mod:`repro.serve.engine`) makes serving
results tie-break independent by construction *if* code keeps a
discipline the language cannot express: shared serving objects (FIFO
stages, NVMe rings, token buckets, histograms, arbiters, the storage
system) may only be mutated from a timestamp *wave* when the operations
commute, and every order-sensitive mutation must be deferred to the
*settle* phase, which runs after the wave with a happens-before fence.
The vector-clock checker (:mod:`repro.sim.racecheck`) enforces this
dynamically, but only on paths a given config exercises.  This module
proves the same discipline statically, over every path:

- :class:`PhaseAnalysis` extracts per-module facts: every function
  (including nested callbacks), its call edges, the shared-object
  mutations it performs, the callbacks it hands to the event loop, and
  every ``racecheck.track(...)`` registration with its declared
  commutativity;
- :class:`PhaseIndex` links the modules of a directory run into one
  program: it resolves cross-module and method calls (one inheritance
  hop, subclass overrides included), seeds *wave roots* from callbacks
  that escape into ``schedule``/``acquire``/callback slots and *settle
  roots* from ``add_settler`` registrations, and classifies every
  function as wave-phase, settle-phase, or both by reachability.

Two structural idioms of the tree are modelled explicitly:

- the **deferral guard**: ``if <loop>.running: <buffer>; return``
  followed by a direct call means the direct call only happens before
  the run starts.  Call edges and mutations in such pre-run-only
  regions are excluded from phase propagation, which is what keeps the
  settle-phase pump (``ServerCore._pump_now``, which wave code reaches
  only through ``ServerCore._pump``'s guard) and ``Router._route`` out
  of the wave set;
- **self-mutation inside a shared class**: a FIFO mutating its own
  queue inside ``acquire`` is the object's internal discipline (the
  dynamic checker owns it), not a phase violation at a call site.

The kind tables below are the static mirror of the commutativity the
dynamic racecheck is *told* (``commutative_ops=...`` / ``commutes=...``
at the ``track`` call sites); ``commutativity-decl-mismatch`` fails
when a declaration claims more than the tables support.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

# --- shared-object kinds ------------------------------------------------

FIFO = "fifo"
RING = "ring"
MQ = "nvme-mq"
BUCKET = "token-bucket"
HISTOGRAM = "histogram"
ARBITER = "arbiter"
SYSTEM = "storage-system"

#: Class name -> shared-object kind.  Name-based on purpose: fixture
#: packages and single files resolve kinds without importing the real
#: classes, and subclasses inherit the kind through their base list.
SHARED_CLASS_KINDS: dict[str, str] = {
    "FifoResource": FIFO,
    "TenantQueue": RING,
    "SubmissionQueue": RING,
    "MultiQueueNvme": MQ,
    "TokenBucket": BUCKET,
    "LatencyHistogram": HISTOGRAM,
    "Arbiter": ARBITER,
    "RoundRobinArbiter": ARBITER,
    "WeightedRoundRobinArbiter": ARBITER,
    "StorageSystem": SYSTEM,
}

#: Methods that mutate an object of each kind (reads are free).
MUTATING_METHODS: dict[str, frozenset[str]] = {
    FIFO: frozenset({"acquire"}),
    RING: frozenset({"push", "pop"}),
    MQ: frozenset({"fetch", "submit"}),
    BUCKET: frozenset({"take"}),
    HISTOGRAM: frozenset({"record", "merge"}),
    ARBITER: frozenset({"select"}),
    SYSTEM: frozenset({"read", "write", "create_file", "open"}),
}

#: Ops that commute with themselves within one timestamp — the static
#: ground truth the ``track(...)`` declarations must stay within.
#: ``fifo``: a *keyed* ``acquire`` is buffered and stable-sorted at
#: settle ("arrive"), and "start"/"finish" admissions/releases reorder
#: freely against each other (see ``_fifo_ops_commute``); an un-keyed
#: acquire during the run grabs servers in call order and does not.
#: ``ring`` pushes append to a settled batch; pops consume in arbiter
#: order and do not commute.  A histogram is an order-free sketch, so
#: "record" commutes; "merge" folds whole shards and is post-run only.
STATIC_COMMUTATIVE: dict[str, frozenset[str]] = {
    FIFO: frozenset({"arrive", "start", "finish"}),
    RING: frozenset({"push"}),
    MQ: frozenset(),
    BUCKET: frozenset({"take"}),
    HISTOGRAM: frozenset({"record"}),
    ARBITER: frozenset(),
    SYSTEM: frozenset(),
}

WAVE = "wave"
SETTLE = "settle"

#: Methods whose callable arguments the *event loop* will invoke later,
#: during a timestamp wave: ``schedule``/``schedule_at`` event
#: callbacks, ``acquire`` completion callbacks, ``StagePipeline.submit``
#: completion callbacks (handed on to the PCIe stage's ``acquire``), and
#: client ``bind`` submit hooks.  Function refs passed anywhere else
#: (``sorted`` keys, ``benchmark(fn)`` drivers, ``map``) are called
#: synchronously by the receiver and become ordinary call edges instead
#: of wave roots.
WAVE_CALLBACK_SINKS = frozenset({"schedule", "schedule_at", "acquire", "submit", "bind"})

#: Methods registering settle-phase hooks.
SETTLE_CALLBACK_SINKS = frozenset({"add_settler"})

#: Container heads whose subscript yields the element/value type.
_SEQ_HEADS = frozenset({"list", "List", "deque", "Deque", "tuple", "Tuple", "Sequence"})
_MAP_HEADS = frozenset({"dict", "Dict", "Mapping", "MutableMapping", "defaultdict"})


def class_kind(name: str | None, registry: "_Registry | None" = None) -> str | None:
    """Shared-object kind of a class name, through one inheritance hop."""
    if name is None:
        return None
    kind = SHARED_CLASS_KINDS.get(name)
    if kind is not None or registry is None:
        return kind
    decl = registry.classes.get(name)
    if decl is None:
        return None
    for base in decl.bases:
        kind = SHARED_CLASS_KINDS.get(base)
        if kind is not None:
            return kind
    return None


# --- extracted facts ----------------------------------------------------


@dataclass
class MutationSite:
    """One mutating call on a shared object."""

    kind: str
    op: str
    commutative: bool
    node: ast.AST
    receiver: str
    owner_is_self: bool
    pre_run_only: bool


@dataclass
class TrackSite:
    """One ``racecheck.track(obj, name, ...)`` registration."""

    node: ast.AST
    kind: str | None
    obj_desc: str
    declared_ops: frozenset[str]
    has_declared_ops: bool
    predicate: str | None  # local function name passed as commutes=


@dataclass
class FuncFacts:
    """Per-function facts: call edges, mutations, returned callbacks."""

    path: str  # qualified within the module, e.g. "Cls.meth.<locals>.cb"
    module: str
    class_name: str | None
    node: ast.AST | None = None
    calls: list[tuple[tuple, bool]] = field(default_factory=list)
    mutations: list[MutationSite] = field(default_factory=list)
    returned_funcs: set[str] = field(default_factory=set)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.path}" if self.module else self.path


@dataclass
class _ClassDecl:
    name: str
    module: str
    bases: list[str]
    method_nodes: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
    method_return_ann: dict[str, ast.expr]
    attr_ann: dict[str, ast.expr]
    attr_val: dict[str, tuple[str, ast.expr]]  # attr -> (method, value expr)
    self_instrumenting: bool = False
    #: attr -> ("scalar" | "elem", type name); resolved by the registry.
    attr_types: dict[str, tuple[str, str]] = field(default_factory=dict)


def _annotation_names(annotation: ast.expr) -> tuple[str, str] | None:
    """(``"scalar" | "elem"``, type name) a type annotation denotes.

    Handles the annotation styles the tree uses: plain names, string
    annotations (``"RaceChecker | None"``), ``X | None`` unions, and
    ``list[...]``/``dict[...]`` containers (element/value type, so
    ``self._tenants[i]`` types as the element).
    """
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        for side in (annotation.left, annotation.right):
            resolved = _annotation_names(side)
            if resolved is not None:
                return resolved
        return None
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = head.id if isinstance(head, ast.Name) else None
        if head_name == "Optional":
            return _annotation_names(annotation.slice)
        inner = annotation.slice
        if head_name in _SEQ_HEADS:
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            resolved = _annotation_names(inner)
            return ("elem", resolved[1]) if resolved else None
        if head_name in _MAP_HEADS and isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
            resolved = _annotation_names(inner.elts[1])
            return ("elem", resolved[1]) if resolved else None
        return None
    if isinstance(annotation, ast.Name):
        name = annotation.id
        if name in ("None", "bool", "int", "float", "str", "bytes", "object"):
            return None
        return ("scalar", name)
    if isinstance(annotation, ast.Attribute):
        return ("scalar", annotation.attr)
    return None


def _running_guard(test: ast.expr) -> str | None:
    """Classify an ``if`` test as a run-state guard.

    ``"pos"`` for ``<x>.running`` (body executes during the run),
    ``"neg"`` for ``not <x>.running``, ``None`` otherwise.
    """
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _running_guard(test.operand)
        if inner == "pos":
            return "neg"
        if inner == "neg":
            return "pos"
        return None
    if isinstance(test, ast.Attribute) and test.attr == "running":
        return "pos"
    return None


def _terminates(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _describe(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our input
        return "<expr>"


def _ops_literal(expr: ast.expr) -> frozenset[str] | None:
    """String constants of a ``{"a", "b"}`` / ``frozenset({...})`` literal."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("frozenset", "set") and expr.args:
            return _ops_literal(expr.args[0])
        return None
    if isinstance(expr, (ast.Set, ast.Tuple, ast.List)):
        ops = set()
        for elt in expr.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                return None
            ops.add(elt.value)
        return frozenset(ops)
    return None


def predicate_claims(func: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    """Op names a ``commutes=`` predicate can answer ``True`` for.

    Approximated as every string constant compared (``==`` / ``in``)
    inside the predicate, plus the contents of set/tuple literals bound
    to local names it tests membership against.  Over-approximate on
    purpose: a claimed op that the static tables do not support is a
    declaration the dynamic checker would trust but cannot justify.
    """
    claims: set[str] = set()

    def harvest(expr: ast.expr) -> None:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            claims.add(expr.value)
        elif isinstance(expr, (ast.Tuple, ast.Set, ast.List)):
            for elt in expr.elts:
                harvest(elt)

    local_sets: dict[str, frozenset[str]] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            ops = _ops_literal(node.value)
            if isinstance(target, ast.Name) and ops is not None:
                local_sets[target.id] = ops
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if not any(isinstance(op, (ast.Eq, ast.In)) for op in node.ops):
                continue
            for operand in operands:
                harvest(operand)
                if isinstance(operand, ast.Name) and operand.id in local_sets:
                    claims.update(local_sets[operand.id])
    return frozenset(claims)


# --- per-module analysis ------------------------------------------------


class PhaseAnalysis:
    """Phase/mutation facts for one module.

    Construction is light (declaration collection only); the expensive
    typed extraction runs once, driven by the :class:`PhaseIndex` that
    links the module into a directory run.  The engine installs the
    shared index as ``ctx.phases.index``; single-module entry points
    degrade to a solo index over just this module via :meth:`linked`.
    """

    def __init__(self, tree: ast.Module, *, module_name: str = "") -> None:
        self.tree = tree
        self.module = module_name
        #: Installed by the engine on directory runs.
        self.index: PhaseIndex | None = None
        self._solo: PhaseIndex | None = None
        self.imports: dict[str, tuple[str, str]] = {}
        self.classes: dict[str, _ClassDecl] = {}
        self.func_nodes: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.func_return_ann: dict[str, ast.expr] = {}
        # Filled by extraction:
        self.functions: dict[str, FuncFacts] = {}
        self.wave_roots: list[tuple] = []
        self.settle_roots: list[tuple] = []
        self.escape_calls: list[tuple[tuple, str]] = []  # (callee ref, phase)
        self.tracks: list[TrackSite] = []
        self._collect()

    def linked(self) -> "PhaseIndex":
        if self.index is not None:
            return self.index
        if self._solo is None:
            self._solo = PhaseIndex([self])
        return self._solo

    # --- declaration pass --------------------------------------------
    def _collect(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._collect_import(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(node, prefix="")
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)

    def _collect_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = self.module.split(".")
                base = base[: max(len(base) - node.level, 0)]
                module = ".".join(base + ([module] if module else []))
            for item in node.names:
                if module and item.name != "*":
                    self.imports[item.asname or item.name] = (module, item.name)

    def _collect_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, *, prefix: str
    ) -> None:
        path = f"{prefix}{node.name}"
        self.func_nodes[path] = node
        if node.returns is not None:
            self.func_return_ann[path] = node.returns
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(child, prefix=f"{path}.<locals>.")

    def _collect_class(self, node: ast.ClassDef) -> None:
        bases = [
            base.attr if isinstance(base, ast.Attribute) else base.id
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        ]
        decl = _ClassDecl(
            name=node.name,
            module=self.module,
            bases=bases,
            method_nodes={},
            method_return_ann={},
            attr_ann={},
            attr_val={},
        )
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decl.method_nodes[child.name] = child
                if child.returns is not None:
                    decl.method_return_ann[child.name] = child.returns
                self._collect_function(child, prefix=f"{node.name}.")
                self._collect_attr_bindings(decl, child)
            elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                decl.attr_ann.setdefault(child.target.id, child.annotation)
        self.classes[node.name] = decl

    def _collect_attr_bindings(
        self, decl: _ClassDecl, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        decl.attr_val.setdefault(target.attr, (method.name, node.value))
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    decl.attr_ann.setdefault(target.attr, node.annotation)
            elif isinstance(node, ast.Call):
                # self-instrumenting: the class reports its own accesses
                # (or registers itself) with the dynamic race checker.
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("access", "track")
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "self"
                ):
                    decl.self_instrumenting = True

    # --- typed extraction (driven by the index) ----------------------
    def _extract(self, registry: "_Registry") -> None:
        extractor = _Extractor(self, registry)
        extractor.run()


class _Extractor:
    """One typed walk of a module: edges, roots, mutations, tracks."""

    def __init__(self, analysis: PhaseAnalysis, registry: "_Registry") -> None:
        self.a = analysis
        self.reg = registry

    def run(self) -> None:
        # Module-level statements execute pre-run, but callbacks they
        # register (examples, experiment drivers) are real wave roots.
        module_fact = FuncFacts(path="<module>", module=self.a.module, class_name=None)
        self.a.functions[module_fact.path] = module_fact
        self._walk_body(
            self.a.tree.body, env={}, scopes=[{}], fact=module_fact, cls=None
        )
        for path, node in self.a.func_nodes.items():
            if "." in path and ".<locals>." not in path:
                cls_name = path.split(".", 1)[0]
            else:
                cls_name = None
            if ".<locals>." in path:
                continue  # walked from its enclosing function
            self._walk_function(path, node, base_env={}, scopes=[{}], cls=cls_name)

    # --- environments -------------------------------------------------
    def _param_env(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None
    ) -> dict[str, tuple[str, str]]:
        env: dict[str, tuple[str, str]] = {}
        args = node.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in all_args:
            if arg.annotation is not None:
                resolved = _annotation_names(arg.annotation)
                if resolved is not None:
                    env[arg.arg] = resolved
        if cls is not None and all_args and all_args[0].arg in ("self", "cls"):
            env[all_args[0].arg] = ("scalar", cls)
        return env

    def _bind_pass(
        self,
        body: list[ast.stmt],
        env: dict[str, tuple[str, str]],
        cls: str | None,
    ) -> None:
        """Type local assignments (two rounds resolve late bindings)."""
        for _ in range(2):
            for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        typed = self._expr_type(stmt.value, env, cls)
                        if typed is not None:
                            env[target.id] = typed
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    resolved = _annotation_names(stmt.annotation)
                    if resolved is not None:
                        env[stmt.target.id] = resolved
                elif isinstance(stmt, ast.For) and isinstance(stmt.target, ast.Name):
                    iterated = self._expr_type(stmt.iter, env, cls)
                    if iterated is not None and iterated[0] == "elem":
                        env[stmt.target.id] = ("scalar", iterated[1])

    # --- typing --------------------------------------------------------
    def _scalar(self, typed: tuple[str, str] | None) -> str | None:
        return typed[1] if typed is not None and typed[0] == "scalar" else None

    def _expr_type(
        self, expr: ast.expr, env: dict[str, tuple[str, str]], cls: str | None
    ) -> tuple[str, str] | None:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._scalar(self._expr_type(expr.value, env, cls))
            if owner is None:
                return None
            return self.reg.attr_type(owner, expr.attr)
        if isinstance(expr, ast.Subscript):
            container = self._expr_type(expr.value, env, cls)
            if container is not None and container[0] == "elem":
                return ("scalar", container[1])
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                name = func.id
                if name in SHARED_CLASS_KINDS or name in self.reg.classes:
                    return ("scalar", name)
                imported = self.a.imports.get(name)
                if imported is not None and imported[1] in self.reg.classes:
                    return ("scalar", imported[1])
                ann = self._function_return_ann(name)
                if ann is not None:
                    return _annotation_names(ann)
                return None
            if isinstance(func, ast.Attribute):
                owner = self._scalar(self._expr_type(func.value, env, cls))
                if owner is None:
                    return None
                ann = self.reg.method_return_ann(owner, func.attr)
                if ann is not None:
                    return _annotation_names(ann)
            return None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            element = self._expr_type(expr.elt, env, cls)
            if element is not None and element[0] == "scalar":
                return ("elem", element[1])
            return None
        if isinstance(expr, ast.List) and expr.elts:
            element = self._expr_type(expr.elts[0], env, cls)
            if element is not None and element[0] == "scalar":
                return ("elem", element[1])
            return None
        if isinstance(expr, ast.IfExp):
            return self._expr_type(expr.body, env, cls) or self._expr_type(
                expr.orelse, env, cls
            )
        return None

    def _function_return_ann(self, name: str) -> ast.expr | None:
        ann = self.a.func_return_ann.get(name)
        if ann is not None:
            return ann
        imported = self.a.imports.get(name)
        if imported is not None:
            module, fname = imported
            target = self.reg.module(module)
            if target is not None:
                return target.func_return_ann.get(fname)
        return None

    # --- reference resolution -----------------------------------------
    def _func_ref(
        self,
        expr: ast.expr,
        env: dict[str, tuple[str, str]],
        scopes: list[dict[str, str]],
        cls: str | None,
    ) -> tuple | None:
        if isinstance(expr, ast.Name):
            name = expr.id
            for scope in reversed(scopes):
                if name in scope:
                    return ("fn", self.a.module, scope[name])
            if name in self.a.func_nodes:
                return ("fn", self.a.module, name)
            imported = self.a.imports.get(name)
            if imported is not None:
                return ("fn", imported[0], imported[1])
            return None
        if isinstance(expr, ast.Attribute):
            owner = self._scalar(self._expr_type(expr.value, env, cls))
            if owner is not None:
                return ("method", owner, expr.attr)
            if isinstance(expr.value, ast.Name) and cls is not None:
                # Untyped receiver inside a class: bare-name fallback the
                # flow engine also uses (a same-module method by name).
                if f"{cls}.{expr.attr}" in self.a.func_nodes:
                    return ("method", cls, expr.attr)
            return None
        return None

    # --- statement walk ------------------------------------------------
    def _walk_function(
        self,
        path: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        base_env: dict[str, tuple[str, str]],
        scopes: list[dict[str, str]],
        cls: str | None,
    ) -> None:
        fact = FuncFacts(path=path, module=self.a.module, class_name=cls, node=node)
        self.a.functions[path] = fact
        env = dict(base_env)
        env.update(self._param_env(node, cls))
        self._bind_pass(node.body, env, cls)
        nested = {
            child.name: f"{path}.<locals>.{child.name}"
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        inner_scopes = [*scopes, nested]
        self._walk_body(node.body, env=env, scopes=inner_scopes, fact=fact, cls=cls)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_function(
                    nested[child.name],
                    child,
                    base_env=env,
                    scopes=inner_scopes,
                    cls=cls,
                )

    def _walk_body(
        self,
        body: list[ast.stmt],
        *,
        env: dict[str, tuple[str, str]],
        scopes: list[dict[str, str]],
        fact: FuncFacts,
        cls: str | None,
        pre_run: bool = False,
    ) -> None:
        block_pre_run = pre_run
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs walked separately
            if isinstance(stmt, ast.ClassDef):
                continue  # local classes: out of scope
            if isinstance(stmt, ast.If):
                guard = _running_guard(stmt.test)
                if guard is not None:
                    run_body = stmt.body if guard == "pos" else stmt.orelse
                    pre_body = stmt.orelse if guard == "pos" else stmt.body
                    self._walk_body(
                        run_body, env=env, scopes=scopes, fact=fact, cls=cls,
                        pre_run=block_pre_run,
                    )
                    self._walk_body(
                        pre_body, env=env, scopes=scopes, fact=fact, cls=cls,
                        pre_run=True,
                    )
                    # `if running: buffer; return` — whatever follows in
                    # this block only executes before the run starts.
                    if guard == "pos" and _terminates(stmt.body):
                        block_pre_run = True
                    continue
                self._scan_expr(stmt.test, env, scopes, fact, cls, block_pre_run)
                self._walk_body(
                    stmt.body, env=env, scopes=scopes, fact=fact, cls=cls,
                    pre_run=block_pre_run,
                )
                self._walk_body(
                    stmt.orelse, env=env, scopes=scopes, fact=fact, cls=cls,
                    pre_run=block_pre_run,
                )
                continue
            if isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    ref = self._func_ref(stmt.value, env, scopes, cls)
                    if ref is not None and ref[0] == "fn" and ref[1] == self.a.module:
                        fact.returned_funcs.add(ref[2])
                    self._scan_expr(stmt.value, env, scopes, fact, cls, block_pre_run)
                continue
            if isinstance(stmt, ast.Assign):
                # A function ref stored into an attribute escapes: the
                # holder may invoke it from any wave event.
                ref = self._func_ref(stmt.value, env, scopes, cls)
                if ref is not None and any(
                    isinstance(target, ast.Attribute) for target in stmt.targets
                ):
                    self.a.wave_roots.append(ref)
                self._scan_expr(stmt.value, env, scopes, fact, cls, block_pre_run)
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_expr(child, env, scopes, fact, cls, block_pre_run)
                elif isinstance(child, (ast.comprehension, ast.withitem)):
                    for sub in ast.iter_child_nodes(child):
                        if isinstance(sub, ast.expr):
                            self._scan_expr(sub, env, scopes, fact, cls, block_pre_run)
                elif isinstance(child, ast.excepthandler):
                    self._walk_body(
                        child.body, env=env, scopes=scopes, fact=fact, cls=cls,
                        pre_run=block_pre_run,
                    )
            for attr in ("body", "orelse", "finalbody"):
                nested_body = getattr(stmt, attr, None)
                if isinstance(nested_body, list) and nested_body and isinstance(
                    nested_body[0], ast.stmt
                ):
                    self._walk_body(
                        nested_body, env=env, scopes=scopes, fact=fact, cls=cls,
                        pre_run=block_pre_run,
                    )

    # --- expression walk -----------------------------------------------
    def _scan_expr(
        self,
        expr: ast.expr,
        env: dict[str, tuple[str, str]],
        scopes: list[dict[str, str]],
        fact: FuncFacts,
        cls: str | None,
        pre_run: bool,
    ) -> None:
        if isinstance(expr, ast.Call):
            self._scan_call(expr, env, scopes, fact, cls, pre_run)
            return
        if isinstance(expr, ast.Lambda):
            self._scan_lambda(expr, env, scopes, cls, phase=WAVE)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, env, scopes, fact, cls, pre_run)
            elif isinstance(child, ast.comprehension):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        self._scan_expr(sub, env, scopes, fact, cls, pre_run)

    def _scan_lambda(
        self,
        lam: ast.Lambda,
        env: dict[str, tuple[str, str]],
        scopes: list[dict[str, str]],
        cls: str | None,
        *,
        phase: str,
    ) -> None:
        """Callbacks wrapped in a lambda: every call inside is a root."""
        roots = self.a.wave_roots if phase == WAVE else self.a.settle_roots
        for node in ast.walk(lam.body):
            if isinstance(node, ast.Call):
                ref = self._func_ref(node.func, env, scopes, cls)
                if ref is not None:
                    roots.append(ref)

    def _scan_call(
        self,
        call: ast.Call,
        env: dict[str, tuple[str, str]],
        scopes: list[dict[str, str]],
        fact: FuncFacts,
        cls: str | None,
        pre_run: bool,
    ) -> None:
        func = call.func
        leaf = None
        if isinstance(func, ast.Name):
            leaf = func.id
        elif isinstance(func, ast.Attribute):
            leaf = func.attr
            self._scan_expr(func.value, env, scopes, fact, cls, pre_run)

        if leaf in SETTLE_CALLBACK_SINKS:
            sink_phase: str | None = SETTLE
        elif leaf in WAVE_CALLBACK_SINKS:
            sink_phase = WAVE
        else:
            sink_phase = None
        roots = self.a.settle_roots if sink_phase == SETTLE else self.a.wave_roots

        if leaf == "track" and isinstance(func, ast.Attribute) and len(call.args) >= 2:
            self._record_track(call, env, cls)

        # Mutation: a mutating method on a shared-kind receiver.
        if isinstance(func, ast.Attribute):
            owner_type = self._scalar(self._expr_type(func.value, env, cls))
            kind = class_kind(owner_type, self.reg)
            if kind is not None and leaf in MUTATING_METHODS.get(kind, frozenset()):
                op = leaf
                if kind == FIFO and op == "acquire" and any(
                    kw.arg == "key" for kw in call.keywords
                ):
                    op = "arrive"  # keyed: buffered + stable-sorted at settle
                fact.mutations.append(
                    MutationSite(
                        kind=kind,
                        op=op,
                        commutative=op in STATIC_COMMUTATIVE.get(kind, frozenset()),
                        node=call,
                        receiver=_describe(func.value),
                        owner_is_self=isinstance(func.value, ast.Name)
                        and func.value.id == "self",
                        pre_run_only=pre_run,
                    )
                )

        # Call edge.
        ref = self._func_ref(func, env, scopes, cls)
        if ref is not None:
            fact.calls.append((ref, pre_run))

        # Callable arguments.  Into an event-loop sink they escape and
        # become roots of the sink's phase; anywhere else the receiver
        # calls them synchronously, so they are ordinary call edges of
        # the enclosing function (``sorted(key=self._score)`` charges
        # ``_score`` to the caller's phase, not to the wave).
        for value in [*call.args, *[kw.value for kw in call.keywords]]:
            arg_ref = self._func_ref(value, env, scopes, cls)
            if arg_ref is not None:
                if sink_phase is not None:
                    roots.append(arg_ref)
                else:
                    fact.calls.append((arg_ref, pre_run))
                continue
            if isinstance(value, ast.Lambda):
                if sink_phase is not None:
                    self._scan_lambda(value, env, scopes, cls, phase=sink_phase)
                else:
                    for inner in ast.walk(value.body):
                        if isinstance(inner, ast.Call):
                            inner_ref = self._func_ref(inner.func, env, scopes, cls)
                            if inner_ref is not None:
                                fact.calls.append((inner_ref, pre_run))
                continue
            if isinstance(value, ast.Call) and sink_phase is not None:
                callee = self._func_ref(value.func, env, scopes, cls)
                if callee is not None:
                    self.a.escape_calls.append((callee, sink_phase))
            self._scan_expr(value, env, scopes, fact, cls, pre_run)

    def _record_track(
        self, call: ast.Call, env: dict[str, tuple[str, str]], cls: str | None
    ) -> None:
        obj = call.args[0]
        obj_type = self._scalar(self._expr_type(obj, env, cls))
        kind = class_kind(obj_type, self.reg)
        declared: frozenset[str] = frozenset()
        has_declared = False
        predicate: str | None = None
        for kw in call.keywords:
            if kw.arg == "commutative_ops":
                ops = _ops_literal(kw.value)
                if ops is not None:
                    declared = ops
                    has_declared = True
            elif kw.arg == "commutes" and isinstance(kw.value, ast.Name):
                if kw.value.id in self.a.func_nodes:
                    predicate = kw.value.id
        self.a.tracks.append(
            TrackSite(
                node=call,
                kind=kind,
                obj_desc=_describe(obj),
                declared_ops=declared,
                has_declared_ops=has_declared,
                predicate=predicate,
            )
        )


# --- the linked program -------------------------------------------------


class _Registry:
    """Cross-module class/function tables shared by all extractors."""

    def __init__(self, analyses: list[PhaseAnalysis]) -> None:
        self.modules: dict[str, PhaseAnalysis] = {}
        self.aliases: dict[str, PhaseAnalysis] = {}
        self.classes: dict[str, _ClassDecl] = {}
        self.subclasses: dict[str, list[str]] = {}
        for analysis in analyses:
            self.modules.setdefault(analysis.module, analysis)
            short = analysis.module.rsplit(".", 1)[-1]
            self.aliases.setdefault(short, analysis)
            for name, decl in analysis.classes.items():
                self.classes.setdefault(name, decl)
        for name, decl in self.classes.items():
            for base in decl.bases:
                if base in self.classes:
                    self.subclasses.setdefault(base, []).append(name)
        self._resolve_attr_types()

    def module(self, name: str) -> PhaseAnalysis | None:
        found = self.modules.get(name)
        if found is None and "." in name:
            found = self.aliases.get(name.rsplit(".", 1)[-1])
        return found

    def _resolve_attr_types(self) -> None:
        # Two rounds so one level of aliasing (`self._race = loop.racecheck`
        # with `loop: EventLoop`) resolves through the first round's types.
        for _ in range(2):
            for decl in self.classes.values():
                for attr, annotation in decl.attr_ann.items():
                    resolved = _annotation_names(annotation)
                    if resolved is not None:
                        decl.attr_types[attr] = resolved
                for attr, (method_name, value) in decl.attr_val.items():
                    if attr in decl.attr_types:
                        continue
                    resolved = self._value_type(decl, method_name, value)
                    if resolved is not None:
                        decl.attr_types[attr] = resolved

    def _value_type(
        self, decl: _ClassDecl, method_name: str, value: ast.expr
    ) -> tuple[str, str] | None:
        analysis = self.modules.get(decl.module)
        method = decl.method_nodes.get(method_name)
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            name = value.func.id
            if name in SHARED_CLASS_KINDS or name in self.classes:
                return ("scalar", name)
            if analysis is not None:
                imported = analysis.imports.get(name)
                if imported is not None and imported[1] in self.classes:
                    return ("scalar", imported[1])
        if isinstance(value, ast.Name) and method is not None:
            for arg in [*method.args.posonlyargs, *method.args.args, *method.args.kwonlyargs]:
                if arg.arg == value.id and arg.annotation is not None:
                    return _annotation_names(arg.annotation)
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and method is not None
        ):
            for arg in [*method.args.posonlyargs, *method.args.args, *method.args.kwonlyargs]:
                if arg.arg == value.value.id and arg.annotation is not None:
                    owner = _annotation_names(arg.annotation)
                    if owner is not None and owner[0] == "scalar":
                        return self.attr_type(owner[1], value.attr)
        return None

    def attr_type(self, class_name: str, attr: str) -> tuple[str, str] | None:
        decl = self.classes.get(class_name)
        seen = 0
        while decl is not None and seen < 3:
            typed = decl.attr_types.get(attr)
            if typed is not None:
                return typed
            parent = next((b for b in decl.bases if b in self.classes), None)
            decl = self.classes.get(parent) if parent else None
            seen += 1
        return None

    def method_return_ann(self, class_name: str, method: str) -> ast.expr | None:
        decl = self.classes.get(class_name)
        seen = 0
        while decl is not None and seen < 3:
            ann = decl.method_return_ann.get(method)
            if ann is not None:
                return ann
            parent = next((b for b in decl.bases if b in self.classes), None)
            decl = self.classes.get(parent) if parent else None
            seen += 1
        return None


class PhaseIndex:
    """The linked whole-program view a directory run shares.

    Extraction and the reachability fixpoint run lazily on first query,
    so runs that filter the phase rules out pay only for parsing.
    """

    def __init__(self, analyses: list[PhaseAnalysis]) -> None:
        self._analyses = list(analyses)
        self._built = False
        self.registry: _Registry | None = None
        #: qualname -> parent qualname (None for roots) per phase.
        self._reach: dict[str, dict[str, str | None]] = {WAVE: {}, SETTLE: {}}
        self._functions: dict[str, FuncFacts] = {}
        self._tracked_kinds: set[str] = set()
        self._instrumented_classes: set[str] = set()

    # --- queries -------------------------------------------------------
    @property
    def tracked_kinds(self) -> set[str]:
        """Kinds some ``track(...)`` call or self-reporting class covers."""
        self._ensure()
        return self._tracked_kinds

    @property
    def instrumented_classes(self) -> set[str]:
        """Classes whose methods report their own accesses to the checker."""
        self._ensure()
        return self._instrumented_classes

    def phase(self, qualname: str) -> str | None:
        """``"wave"``, ``"settle"``, ``"both"`` or ``None`` (unreached)."""
        self._ensure()
        in_wave = qualname in self._reach[WAVE]
        in_settle = qualname in self._reach[SETTLE]
        if in_wave and in_settle:
            return "both"
        if in_wave:
            return WAVE
        if in_settle:
            return SETTLE
        return None

    def witness(self, qualname: str, phase: str = WAVE) -> list[str]:
        """Call chain from a phase root down to ``qualname``."""
        self._ensure()
        chain: list[str] = []
        cursor: str | None = qualname
        reach = self._reach[phase]
        while cursor is not None and cursor not in chain:
            chain.append(cursor)
            cursor = reach.get(cursor)
        return list(reversed(chain))

    def module_functions(self, module_name: str) -> list[FuncFacts]:
        self._ensure()
        analysis = self.registry.module(module_name) if self.registry else None
        if analysis is None:
            return []
        return list(analysis.functions.values())

    def module_tracks(self, module_name: str) -> list[TrackSite]:
        self._ensure()
        analysis = self.registry.module(module_name) if self.registry else None
        if analysis is None:
            return []
        return list(analysis.tracks)

    def predicate_node(
        self, module_name: str, name: str
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        self._ensure()
        analysis = self.registry.module(module_name) if self.registry else None
        if analysis is None:
            return None
        return analysis.func_nodes.get(name)

    def kind_is_instrumented(self, kind: str, class_name: str | None) -> bool:
        """Whether mutations of this kind are visible to the racecheck."""
        self._ensure()
        if kind in self.tracked_kinds:
            return True
        return class_name is not None and class_name in self.instrumented_classes

    # --- construction --------------------------------------------------
    def _ensure(self) -> None:
        if self._built:
            return
        self._built = True
        registry = _Registry(self._analyses)
        self.registry = registry
        for analysis in self._analyses:
            analysis._extract(registry)
        for analysis in self._analyses:
            for fact in analysis.functions.values():
                self._functions[fact.qualname] = fact
            for track in analysis.tracks:
                if track.kind is not None:
                    self._tracked_kinds.add(track.kind)
        for name, decl in registry.classes.items():
            if decl.self_instrumenting:
                self._instrumented_classes.add(name)
                kind = class_kind(name, registry)
                if kind is not None:
                    self._tracked_kinds.add(kind)
        wave_roots: list[tuple] = []
        settle_roots: list[tuple] = []
        for analysis in self._analyses:
            wave_roots.extend(analysis.wave_roots)
            settle_roots.extend(analysis.settle_roots)
            for callee, phase in analysis.escape_calls:
                for factory in self._resolve(callee):
                    for returned in factory.returned_funcs:
                        ref = ("fn", factory.module, returned)
                        (wave_roots if phase == WAVE else settle_roots).append(ref)
        self._propagate(WAVE, wave_roots)
        self._propagate(SETTLE, settle_roots)

    def _resolve(self, ref: tuple) -> list[FuncFacts]:
        assert self.registry is not None
        if ref[0] == "fn":
            _, module, path = ref
            analysis = self.registry.module(module)
            if analysis is None:
                return []
            fact = analysis.functions.get(path)
            return [fact] if fact is not None else []
        _, class_name, method = ref
        found: list[FuncFacts] = []
        decl = self.registry.classes.get(class_name)
        # The method as defined on the class (or one inherited hop up).
        seen = 0
        cursor = decl
        while cursor is not None and seen < 3:
            if method in cursor.method_nodes:
                analysis = self.registry.modules.get(cursor.module)
                if analysis is not None:
                    fact = analysis.functions.get(f"{cursor.name}.{method}")
                    if fact is not None:
                        found.append(fact)
                break
            parent = next((b for b in cursor.bases if b in self.registry.classes), None)
            cursor = self.registry.classes.get(parent) if parent else None
            seen += 1
        # Virtual dispatch: overrides in (transitive) subclasses.
        if decl is not None:
            frontier = list(self.registry.subclasses.get(class_name, ()))
            visited: set[str] = set()
            while frontier:
                sub_name = frontier.pop()
                if sub_name in visited:
                    continue
                visited.add(sub_name)
                sub = self.registry.classes.get(sub_name)
                if sub is None:
                    continue
                if method in sub.method_nodes:
                    analysis = self.registry.modules.get(sub.module)
                    if analysis is not None:
                        fact = analysis.functions.get(f"{sub_name}.{method}")
                        if fact is not None:
                            found.append(fact)
                frontier.extend(self.registry.subclasses.get(sub_name, ()))
        return found

    def _propagate(self, phase: str, roots: list[tuple]) -> None:
        reach = self._reach[phase]
        worklist: list[FuncFacts] = []
        for ref in roots:
            for fact in self._resolve(ref):
                if fact.qualname not in reach:
                    reach[fact.qualname] = None
                    worklist.append(fact)
        while worklist:
            fact = worklist.pop()
            for ref, pre_run_only in fact.calls:
                if pre_run_only:
                    continue
                for callee in self._resolve(ref):
                    if callee.qualname not in reach:
                        reach[callee.qualname] = fact.qualname
                        worklist.append(callee)


__all__ = [
    "ARBITER",
    "BUCKET",
    "FIFO",
    "FuncFacts",
    "HISTOGRAM",
    "MQ",
    "MUTATING_METHODS",
    "MutationSite",
    "PhaseAnalysis",
    "PhaseIndex",
    "RING",
    "SETTLE",
    "SHARED_CLASS_KINDS",
    "STATIC_COMMUTATIVE",
    "SYSTEM",
    "TrackSite",
    "WAVE",
    "class_kind",
    "predicate_claims",
]

"""Dimensional abstract interpretation for the simlint unit rules.

``unit-suffix-consistency`` (PR 2) checks *naming*: two plain
identifiers with conflicting suffixes on one operator.  This module
checks what expressions actually *compute*.  Every local, attribute,
call result and operator node is abstractly evaluated in a small
dimension algebra, and the resulting judgements drive three rules
(``dimension-mismatch``, ``rate-derivation``,
``suffixless-cost-literal``).

The algebra
-----------

A :class:`Dim` is a pair of integer exponents over the simulator's two
base dimensions, **time** and **size**:

====================  ==========  =========================================
kind                  exponents   examples
====================  ==========  =========================================
time                  (1, 0)      ``tR_ns``, ``budget_us``, ``window_ms``
size                  (0, 1)      ``nbytes``, ``tempbuf_bytes``
rate (size/time)      (-1, 1)     ``bw_bytes_per_ns``, ``link_bpns``
inverse rate          (1, -1)     ``cost_ns_per_byte``
count / ratio         (0, 0)      ``victim_pages``, ``n_items``, ``hit_ratio``
====================  ==========  =========================================

Counts and dimensionless ratios share the zero vector: a count behaves
as a pure number under ``*``/``/`` (``n_pages * page_size_bytes`` is
bytes), while adding a count to a time or a size is still a mismatch.
The algebra is deliberately coarser than the suffix rule: ``_ns`` and
``_us`` are both *time*, so scale conversions stay that rule's job and
this analysis never double-reports them.

Inference sources, in priority order:

1. **string annotations** — ``budget: "ns" = f()`` pins a name's unit
   (accepted spellings: ``ns``/``us``/``ms``, ``bytes``, ``bytes/ns``,
   ``ns/byte``, ``count``, ``ratio``);
2. **suffix conventions** — the trailing identifier token (``_ns``,
   ``_bytes``, ``_bpns``, ``_pages``, ``_ratio``...) and composite
   ``<u>_per_<u>`` names (``bw_bytes_per_ns``);
3. **known sim APIs** — :class:`Stage` (``.ns``),
   :class:`TimingModel` (every ``*_ns`` method/attribute self-describes;
   ``nand_read``/``nand_program`` are in the table),
   :class:`LatencyHistogram`/``Tracer`` recording methods, and the
   :class:`Interconnect` cost surface (``*_ns`` returns, ``nbytes``
   parameters);
4. **flow** — assignments propagate inferred dims to locals, returns
   into per-function summaries, and summaries across modules through
   the engine's shared call-graph index (one import hop, exactly like
   :mod:`repro.lint.flow`).

Per-function summaries record ``(param dims, return dim)``; a function
whose *name* carries a unit suffix (``def bulk_transfer_ns``) declares
its return dim, and every ``return`` expression is checked against the
declaration.  Unknown dims propagate silently — approximation widens
*detection*, never false alarms: a judgement is only emitted when both
sides are known.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.flow import map_call_args

# --- the dimension algebra --------------------------------------------


@dataclass(frozen=True, slots=True)
class Dim:
    """Exponent vector over the (time, size) base dimensions."""

    time: int = 0
    size: int = 0

    def __mul__(self, other: "Dim") -> "Dim":
        return Dim(self.time + other.time, self.size + other.size)

    def __truediv__(self, other: "Dim") -> "Dim":
        return Dim(self.time - other.time, self.size - other.size)

    def label(self) -> str:
        return DIM_LABELS.get((self.time, self.size), f"time^{self.time}*size^{self.size}")


TIME = Dim(1, 0)
SIZE = Dim(0, 1)
RATE = Dim(-1, 1)  # bytes/ns
INV_RATE = Dim(1, -1)  # ns/byte
SCALAR = Dim(0, 0)  # counts and dimensionless ratios

DIM_LABELS = {
    (1, 0): "time (ns)",
    (0, 1): "size (bytes)",
    (-1, 1): "rate (bytes/ns)",
    (1, -1): "inverse rate (ns/byte)",
    (0, 0): "count/ratio",
}

#: identifier token -> dimension (the trailing ``_``-separated token).
SUFFIX_DIMS: dict[str, Dim] = {
    "ns": TIME,
    "us": TIME,
    "ms": TIME,
    "bytes": SIZE,
    "bpns": RATE,
    "pages": SCALAR,
    "blocks": SCALAR,
    "sectors": SCALAR,
    "count": SCALAR,
    "items": SCALAR,
    "entries": SCALAR,
    "ratio": SCALAR,
    "frac": SCALAR,
    "fraction": SCALAR,
    "factor": SCALAR,
}

#: accepted ``x: "unit"`` annotation spellings.
ANNOTATION_DIMS: dict[str, Dim] = {
    "ns": TIME,
    "us": TIME,
    "ms": TIME,
    "time": TIME,
    "bytes": SIZE,
    "size": SIZE,
    "bytes/ns": RATE,
    "bpns": RATE,
    "ns/byte": INV_RATE,
    "count": SCALAR,
    "ratio": SCALAR,
    "dimensionless": SCALAR,
}

#: Attribute names with a known dim even without a suffix (sim APIs).
KNOWN_ATTR_DIMS: dict[str, Dim] = {
    "ns": TIME,  # Stage.ns
    "nbytes": SIZE,
    "page_size": SIZE,
    "block_size": SIZE,
    "mmio_payload_bytes": SIZE,
    "read_transaction_bytes": SIZE,
    "cacheline_bytes": SIZE,
}

#: Call leaf names with a known return dim (suffixless sim APIs).
#: ``len`` is deliberately absent: ``len(payload)`` is routinely a byte
#: count, so pinning it to count/ratio would flag honest comparisons.
KNOWN_CALL_DIMS: dict[str, Dim] = {
    "nand_read": TIME,  # TimingModel.nand_read / nand_program
    "nand_program": TIME,
}

#: Builtins that return the dim of their first argument.
_PASSTHROUGH_CALLS = frozenset({"abs", "float", "int", "round"})

#: Builtins whose arguments must agree dimensionally (and whose result
#: is the agreed dim) — the ISSUE's "min-max across different units".
_AGREEING_CALLS = frozenset({"min", "max"})


def dim_of_identifier(name: str) -> Dim | None:
    """Dimension declared by an identifier's suffix convention.

    Handles composite ``<u>_per_<u>`` names (``bw_bytes_per_ns`` is
    size/time) before falling back to the trailing token.
    """
    tokens = name.lower().split("_")
    if len(tokens) >= 3 and tokens[-2] == "per":
        num = SUFFIX_DIMS.get(_singular(tokens[-3]))
        den = SUFFIX_DIMS.get(_singular(tokens[-1]))
        if num is not None and den is not None:
            return num / den
    return SUFFIX_DIMS.get(tokens[-1]) if tokens else None


def _singular(token: str) -> str:
    """``byte`` -> ``bytes`` so ``ns_per_byte`` parses."""
    return token if token in SUFFIX_DIMS else token + "s"


# --- judgements the walk emits ----------------------------------------

#: Judgement kinds (the ``kind`` field of :class:`UnitEvent`).
MISMATCH = "mismatch"  # add/sub/compare/min-max/arg/assign across dims
DERIVATION = "derivation"  # * or / producing a dim != the declared one
BARE_LITERAL = "bare-literal"  # suffixless literal into a cost sink


@dataclass(frozen=True, slots=True)
class UnitEvent:
    """One dimensional judgement, anchored to an AST node."""

    kind: str
    node: ast.AST
    message: str


@dataclass
class UnitSummary:
    """Dimensional signature of one function."""

    name: str
    params: tuple[str, ...]
    #: parameter name -> declared dim (from suffix/annotation).
    param_dims: dict[str, Dim] = field(default_factory=dict)
    #: return dim: declared by the function name's suffix, else the
    #: single dim every return expression inferred to (intra-module).
    return_dim: Dim | None = None
    #: True when ``return_dim`` comes from the function's own name.
    declared_return: bool = False


#: Cost-sink methods: (method name, resolver) pairs.  The resolver maps
#: a call to the argument index carrying a duration, or ``None`` when
#: the call shape does not match the Tracer recording method.
def _labelled_ns_arg(call: ast.Call) -> int | None:
    args = call.args
    if len(args) >= 2 and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
        return 1  # Tracer.host("name", ns)
    return None


def _channel_ns_arg(call: ast.Call) -> int | None:
    args = call.args
    if len(args) >= 3 and isinstance(args[1], ast.Constant) and isinstance(args[1].value, str):
        return 2  # Tracer.channel(index, "name", ns)
    return None


def _second_arg(call: ast.Call) -> int | None:
    return 1 if len(call.args) >= 2 else None


#: method name -> resolver yielding the ns-valued argument position.
COST_SINK_METHODS = {
    "host": _labelled_ns_arg,
    "pcie": _labelled_ns_arg,
    "channel": _channel_ns_arg,
    "serial_nand": _second_arg,  # Tracer.serial_nand(name, ns)
}

#: Literals that are dimension-safe in a cost expression: zero cost and
#: the +/-1 used by index arithmetic that rides along in the same call.
_TRIVIAL_LITERALS = frozenset({0, 1, -1, 0.0, 1.0, -1.0})


class UnitAnalysis:
    """Dimensional abstract interpretation of one module.

    Construction computes the per-function :class:`UnitSummary` table
    (declared param/return dims plus intra-module return inference, two
    rounds so helper-calls-helper chains converge).  The engine's
    directory runs then install a shared ``module name -> summaries``
    index, and :meth:`events` — computed lazily, after the index is in
    place — replays every function body against it, yielding the
    judgements the rules turn into findings.
    """

    def __init__(self, tree: ast.Module, *, module_name: str = "") -> None:
        self.tree = tree
        self.module_name = module_name
        #: shared across a directory run (mirrors ``flow.package_index``).
        self.module_index: dict[str, dict[str, UnitSummary]] = {}
        self.summaries: dict[str, UnitSummary] = {}
        self._imported_funcs: dict[str, tuple[str, str]] = {}
        self._functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self._annotated: dict[str, Dim] = {}
        self._events: list[UnitEvent] | None = None
        self._scan_imports()
        self._collect_functions()
        for _ in range(2):  # converge intra-module return dims
            for fn_node in self._functions.values():
                self._infer_return(fn_node)

    # --- queries -------------------------------------------------------
    def events(self) -> list[UnitEvent]:
        """Every judgement in the module (computed once, then cached)."""
        if self._events is None:
            self._events = []
            env = self._module_env()
            self._walk_body(self.tree.body, env, current=None)
            for fn_node in self._walk_functions():
                self._check_function(fn_node)
        return self._events

    # --- construction --------------------------------------------------
    def _scan_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    base = self.module_name.split(".")
                    base = base[: max(len(base) - node.level, 0)]
                    module = ".".join(base + ([module] if module else []))
                for item in node.names:
                    if module and item.name != "*":
                        self._imported_funcs[item.asname or item.name] = (module, item.name)

    def _collect_functions(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._functions.setdefault(node.name, node)
        for name, node in self._functions.items():
            args = node.args
            params = tuple(
                arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            )
            summary = UnitSummary(name=name, params=params)
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                dim = self._param_dim(arg)
                if dim is not None:
                    summary.param_dims[arg.arg] = dim
            declared = dim_of_identifier(name)
            if declared is not None:
                summary.return_dim = declared
                summary.declared_return = True
            self.summaries[name] = summary

    @staticmethod
    def _param_dim(arg: ast.arg) -> Dim | None:
        annotation = arg.annotation
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            dim = ANNOTATION_DIMS.get(annotation.value.strip().lower())
            if dim is not None:
                return dim
        return dim_of_identifier(arg.arg) or KNOWN_ATTR_DIMS.get(arg.arg)

    def _infer_return(self, fn_node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Set an *inferred* return dim when the name declares none."""
        summary = self.summaries[fn_node.name]
        if summary.declared_return:
            return
        env = self._env_for_node(fn_node)
        dims: set[Dim] = set()
        bare_return = False
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Return):
                if node.value is None:
                    bare_return = True
                    continue
                dim = self._infer(node.value, env, sink=None)
                if dim is None:
                    return  # any unknown return widens to unknown
                dims.add(dim)
        if len(dims) == 1 and not bare_return:
            summary.return_dim = dims.pop()

    # --- environments --------------------------------------------------
    def _module_env(self) -> dict[str, Dim]:
        env: dict[str, Dim] = {}
        for node in self.tree.body:
            self._seed_binding(node, env)
        return env

    def _env_for_node(
        self, fn_node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, Dim]:
        """Parameter dims straight from the node's own signature (same-
        named methods on different classes must not share one env)."""
        env: dict[str, Dim] = {}
        args = fn_node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            dim = self._param_dim(arg)
            if dim is not None:
                env[arg.arg] = dim
        return env

    def _seed_binding(self, stmt: ast.stmt, env: dict[str, Dim]) -> None:
        """Record string-annotation dims (``x: "ns" = ...``)."""
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = stmt.annotation
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                dim = ANNOTATION_DIMS.get(annotation.value.strip().lower())
                if dim is not None:
                    env[stmt.target.id] = dim
                    self._annotated[stmt.target.id] = dim

    # --- the walk ------------------------------------------------------
    def _walk_functions(self) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        seen: set[int] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if id(node) not in seen:
                    seen.add(id(node))
                    yield node

    def _check_function(self, fn_node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        declared = dim_of_identifier(fn_node.name)
        current = UnitSummary(
            name=fn_node.name,
            params=(),
            return_dim=declared,
            declared_return=declared is not None,
        )
        env = self._env_for_node(fn_node)
        self._walk_body(fn_node.body, env, current=current)

    def _walk_body(
        self, body: list[ast.stmt], env: dict[str, Dim], current: UnitSummary | None
    ) -> None:
        # Two passes so names bound later in the scope still resolve.
        for final in (False, True):
            for stmt in body:
                self._exec(stmt, env, current, emit=final)

    def _exec(
        self,
        stmt: ast.stmt,
        env: dict[str, Dim],
        current: UnitSummary | None,
        *,
        emit: bool,
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes get their own walk
        if isinstance(stmt, ast.Assign):
            value_dim = self._infer(stmt.value, env, sink=self if emit else None)
            for target in stmt.targets:
                self._bind(target, stmt.value, value_dim, env, emit=emit)
            return
        if isinstance(stmt, ast.AnnAssign):
            self._seed_binding(stmt, env)
            if stmt.value is not None:
                value_dim = self._infer(stmt.value, env, sink=self if emit else None)
                self._bind(stmt.target, stmt.value, value_dim, env, emit=emit)
            return
        if isinstance(stmt, ast.AugAssign):
            target_dim = self._infer(stmt.target, env, sink=None)
            value_dim = self._infer(stmt.value, env, sink=self if emit else None)
            if (
                emit
                and isinstance(stmt.op, (ast.Add, ast.Sub))
                and target_dim is not None
                and value_dim is not None
                and target_dim != value_dim
            ):
                self._emit(
                    MISMATCH,
                    stmt,
                    f"augmented assignment accumulates {value_dim.label()} into "
                    f"`{_describe(stmt.target)}` ({target_dim.label()})",
                )
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return
            dim = self._infer(stmt.value, env, sink=self if emit else None)
            if (
                emit
                and current is not None
                and current.declared_return
                and dim is not None
                and current.return_dim is not None
                and dim != current.return_dim
            ):
                kind = (
                    DERIVATION
                    if isinstance(stmt.value, ast.BinOp)
                    and isinstance(stmt.value.op, (ast.Mult, ast.Div, ast.FloorDiv))
                    else MISMATCH
                )
                self._emit(
                    kind,
                    stmt,
                    f"`{current.name}` declares {current.return_dim.label()} by its "
                    f"name but returns {dim.label()}",
                )
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._infer(stmt.test, env, sink=self if emit else None)
            for inner in (*stmt.body, *stmt.orelse):
                self._exec(inner, env, current, emit=emit)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._infer(stmt.iter, env, sink=self if emit else None)
            for name in _target_names(stmt.target):
                env.pop(name, None)
                declared = dim_of_identifier(name)
                if declared is not None:
                    env[name] = declared
            for inner in (*stmt.body, *stmt.orelse):
                self._exec(inner, env, current, emit=emit)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._infer(item.context_expr, env, sink=self if emit else None)
            for inner in stmt.body:
                self._exec(inner, env, current, emit=emit)
            return
        if isinstance(stmt, ast.Try):
            for inner in (*stmt.body, *stmt.orelse, *stmt.finalbody):
                self._exec(inner, env, current, emit=emit)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._exec(inner, env, current, emit=emit)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._infer(child, env, sink=self if emit else None)

    def _bind(
        self,
        target: ast.expr,
        value: ast.expr,
        value_dim: Dim | None,
        env: dict[str, Dim],
        *,
        emit: bool,
    ) -> None:
        if isinstance(target, ast.Name):
            declared = self._annotated.get(target.id) or dim_of_identifier(target.id)
            if emit and declared is not None and value_dim is not None and declared != value_dim:
                if isinstance(value, ast.BinOp) and isinstance(
                    value.op, (ast.Mult, ast.Div, ast.FloorDiv)
                ):
                    self._emit(
                        DERIVATION,
                        value,
                        f"`{target.id}` declares {declared.label()} but the "
                        f"derivation computes {value_dim.label()} — "
                        "inverted or missing factor?",
                    )
                else:
                    self._emit(
                        MISMATCH,
                        value,
                        f"`{target.id}` declares {declared.label()} but is "
                        f"assigned {value_dim.label()}",
                    )
            resolved = declared if declared is not None else value_dim
            if resolved is None:
                env.pop(target.id, None)
            else:
                env[target.id] = resolved
            return
        if isinstance(target, ast.Attribute):
            declared = dim_of_identifier(target.attr) or KNOWN_ATTR_DIMS.get(target.attr)
            if emit and declared is not None and value_dim is not None and declared != value_dim:
                kind = (
                    DERIVATION
                    if isinstance(value, ast.BinOp)
                    and isinstance(value.op, (ast.Mult, ast.Div, ast.FloorDiv))
                    else MISMATCH
                )
                self._emit(
                    kind,
                    value,
                    f"`{_describe(target)}` declares {declared.label()} but is "
                    f"assigned {value_dim.label()}",
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
                    dim = self._infer(elements[index], env, sink=None)
                    self._bind(element, elements[index], dim, env, emit=emit)
                elif isinstance(element, ast.Name):
                    env.pop(element.id, None)

    # --- expression inference -----------------------------------------
    def _infer(
        self, node: ast.expr, env: dict[str, Dim], sink: "UnitAnalysis | None"
    ) -> Dim | None:
        """Dimension of ``node``; emits judgements when ``sink`` is set."""
        emit = sink is not None
        if isinstance(node, ast.Constant):
            return None  # literals are dimension-polymorphic
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return self._annotated.get(node.id) or dim_of_identifier(node.id)
        if isinstance(node, ast.Attribute):
            if emit:
                self._infer(node.value, env, sink)
            return dim_of_identifier(node.attr) or KNOWN_ATTR_DIMS.get(node.attr)
        if isinstance(node, ast.UnaryOp):
            return self._infer(node.operand, env, sink)
        if isinstance(node, ast.NamedExpr):
            return self._infer(node.value, env, sink)
        if isinstance(node, ast.IfExp):
            if emit:
                self._infer(node.test, env, sink)
            body = self._infer(node.body, env, sink)
            orelse = self._infer(node.orelse, env, sink)
            return body if body == orelse else None
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node, env, sink)
        if isinstance(node, ast.Compare):
            return self._infer_compare(node, env, sink)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._infer(value, env, sink)
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node, env, sink)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._infer(child, env, sink)
            return None
        if isinstance(node, ast.Subscript):
            if emit:
                self._infer(node.slice, env, sink)
            base = node.value
            # ``self.read_bytes[handle]`` keeps the container's suffix dim.
            if isinstance(base, (ast.Name, ast.Attribute)):
                return self._infer(base, env, sink)
            self._infer(base, env, sink)
            return None
        if isinstance(node, ast.Starred):
            return self._infer(node.value, env, sink)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._infer(child, env, sink)
        return None

    def _infer_binop(
        self, node: ast.BinOp, env: dict[str, Dim], sink: "UnitAnalysis | None"
    ) -> Dim | None:
        left = self._infer(node.left, env, sink)
        right = self._infer(node.right, env, sink)
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub)):
            if left is not None and right is not None and left != right:
                if sink is not None and not self._suffix_rule_covers(node.left, node.right):
                    symbol = "+" if isinstance(op, ast.Add) else "-"
                    self._emit(
                        MISMATCH,
                        node,
                        f"`{_describe(node.left)} {symbol} {_describe(node.right)}` "
                        f"combines {left.label()} with {right.label()}",
                    )
                return None
            return left if left is not None else right
        if isinstance(op, ast.Mult):
            if left is None or right is None:
                # A bare literal factor keeps the other side's dim
                # (scale conversions: ``1_000 * delta_us``).
                if isinstance(node.left, ast.Constant):
                    return right
                if isinstance(node.right, ast.Constant):
                    return left
                return None
            return left * right
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if left is None or right is None:
                if isinstance(node.right, ast.Constant):
                    return left  # dividing by a scale factor
                return None
            return left / right
        if isinstance(op, ast.Mod):
            return left
        return None

    def _infer_compare(
        self, node: ast.Compare, env: dict[str, Dim], sink: "UnitAnalysis | None"
    ) -> Dim | None:
        operands = [node.left, *node.comparators]
        dims = [self._infer(operand, env, sink) for operand in operands]
        if sink is not None:
            for op, (left_node, left), (right_node, right) in zip(
                node.ops, zip(operands, dims), zip(operands[1:], dims[1:])
            ):
                if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)):
                    continue
                if left is None or right is None or left == right:
                    continue
                if self._suffix_rule_covers(left_node, right_node):
                    continue
                self._emit(
                    MISMATCH,
                    node,
                    f"comparison of `{_describe(left_node)}` ({left.label()}) "
                    f"with `{_describe(right_node)}` ({right.label()})",
                )
        return None

    def _infer_call(
        self, node: ast.Call, env: dict[str, Dim], sink: "UnitAnalysis | None"
    ) -> Dim | None:
        if sink is not None:
            for arg in node.args:
                inner = arg.value if isinstance(arg, ast.Starred) else arg
                self._infer(inner, env, sink)
            for keyword in node.keywords:
                self._infer(keyword.value, env, sink)
        func = node.func
        leaf: str | None = None
        if isinstance(func, ast.Name):
            leaf = func.id
        elif isinstance(func, ast.Attribute):
            leaf = func.attr
            if sink is not None:
                self._infer(func.value, env, sink)
        if leaf is None:
            return None
        if leaf in _AGREEING_CALLS:
            return self._check_agreeing_call(node, env, sink)
        if leaf in _PASSTHROUGH_CALLS and node.args:
            return self._infer(node.args[0], env, None)
        if leaf == "sum":
            return None
        # Cost sinks: check the duration argument's dim and bare literals.
        if sink is not None and isinstance(func, ast.Attribute) and leaf in COST_SINK_METHODS:
            self._check_cost_sink(node, leaf, env)
        # Callee resolution: local, then one import hop, then known APIs.
        summary = self._resolve_callee(node)
        if summary is not None:
            if sink is not None:
                self._check_call_args(node, summary, env)
            if summary.return_dim is not None:
                return summary.return_dim
        known = KNOWN_CALL_DIMS.get(leaf)
        if known is not None:
            return known
        declared = dim_of_identifier(leaf)
        if declared is not None:
            return declared  # e.g. ``timing.pcie_transfer_ns(n)``
        return None

    def _check_agreeing_call(
        self, node: ast.Call, env: dict[str, Dim], sink: "UnitAnalysis | None"
    ) -> Dim | None:
        dims = [self._infer(arg, env, None) for arg in node.args]
        known = [(arg, dim) for arg, dim in zip(node.args, dims) if dim is not None]
        if sink is not None and len(known) >= 2:
            (first_node, first), *rest = known
            for other_node, other in rest:
                if other != first:
                    name = node.func.id if isinstance(node.func, ast.Name) else "min/max"
                    self._emit(
                        MISMATCH,
                        node,
                        f"`{name}(...)` mixes `{_describe(first_node)}` "
                        f"({first.label()}) with `{_describe(other_node)}` "
                        f"({other.label()})",
                    )
                    break
        return known[0][1] if known else None

    def _check_cost_sink(self, node: ast.Call, method: str, env: dict[str, Dim]) -> None:
        index = COST_SINK_METHODS[method](node)
        if index is None or index >= len(node.args):
            return
        arg = node.args[index]
        dim = self._infer(arg, env, None)
        receiver = node.func.value if isinstance(node.func, ast.Attribute) else None
        where = f"`{_describe(receiver)}.{method}(...)`" if receiver is not None else method
        if dim is not None and dim != TIME:
            self._emit(
                MISMATCH,
                node,
                f"{where} charges a duration but `{_describe(arg)}` is {dim.label()}",
            )
        if self._is_bare_cost_literal(arg):
            self._emit(
                BARE_LITERAL,
                node,
                f"bare numeric literal `{_describe(arg)}` flows into the "
                f"cost sink {where}; name it with a unit suffix (or take it "
                "from TimingModel) so the dimension is checkable",
            )

    @staticmethod
    def _is_bare_cost_literal(arg: ast.expr) -> bool:
        if isinstance(arg, ast.UnaryOp):
            arg = arg.operand
        if isinstance(arg, ast.Constant) and isinstance(arg.value, (int, float)):
            return arg.value not in _TRIVIAL_LITERALS
        if isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Add, ast.Sub)):
            bare = UnitAnalysis._is_bare_cost_literal
            return bare(arg.left) or bare(arg.right)
        return False

    def _check_call_args(
        self, node: ast.Call, summary: UnitSummary, env: dict[str, Dim]
    ) -> None:
        skip = 1 if summary.params[:1] in (("self",), ("cls",)) and isinstance(
            node.func, ast.Attribute
        ) else 0
        for arg, param in map_call_args(node, _as_flow_summary(summary), skip):
            declared = summary.param_dims.get(param)
            if declared is None:
                continue
            dim = self._infer(arg, env, None)
            if dim is not None and dim != declared:
                self._emit(
                    MISMATCH,
                    node,
                    f"`{summary.name}(...)` expects {declared.label()} for "
                    f"`{param}` but `{_describe(arg)}` is {dim.label()}",
                )

    def _resolve_callee(self, call: ast.Call) -> UnitSummary | None:
        func = call.func
        name: str | None = None
        if isinstance(func, ast.Name):
            name = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            name = func.attr
        if name is None:
            return None
        summary = self.summaries.get(name)
        if summary is not None:
            return summary
        target = self._imported_funcs.get(name)
        if target is None:
            return None
        module, fname = target
        table = self.module_index.get(module)
        if table is None and "." in module:
            table = self.module_index.get(module.rsplit(".", 1)[-1])
        if table is None:
            return None
        return table.get(fname)

    # --- helpers -------------------------------------------------------
    @staticmethod
    def _suffix_rule_covers(left: ast.AST, right: ast.AST) -> bool:
        """Whether ``unit-suffix-consistency`` already reports this pair.

        That rule fires on two plain names/attributes whose suffixes
        share a dimension *in its table* (``_bytes`` vs ``_pages``);
        deferring avoids double findings on one operator.
        """
        from repro.lint.rules.units import UNIT_DIMENSIONS, _unit_of

        left_unit, right_unit = _unit_of(left), _unit_of(right)
        return (
            left_unit is not None
            and right_unit is not None
            and left_unit != right_unit
            and UNIT_DIMENSIONS[left_unit] == UNIT_DIMENSIONS[right_unit]
        )

    def _emit(self, kind: str, node: ast.AST, message: str) -> None:
        if self._events is not None:
            self._events.append(UnitEvent(kind=kind, node=node, message=message))


def _as_flow_summary(summary: UnitSummary):
    """Adapter so :func:`repro.lint.flow.map_call_args` can pair args."""

    class _Shim:
        params = summary.params

    return _Shim()


def _describe(node: ast.AST | None) -> str:
    if node is None:
        return "<expr>"
    try:
        return ast.unparse(node)  # type: ignore[arg-type]
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<expr>"


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
    "ANNOTATION_DIMS",
    "BARE_LITERAL",
    "COST_SINK_METHODS",
    "DERIVATION",
    "Dim",
    "INV_RATE",
    "KNOWN_ATTR_DIMS",
    "KNOWN_CALL_DIMS",
    "MISMATCH",
    "RATE",
    "SCALAR",
    "SIZE",
    "SUFFIX_DIMS",
    "TIME",
    "UnitAnalysis",
    "UnitEvent",
    "UnitSummary",
    "dim_of_identifier",
]

"""Whole-program project model: modules, imports, call graph, summaries.

:func:`build_model` parses every Python file under the given roots
*once* and distils each module into a :class:`ModuleSummary` — import
bindings plus one :class:`FunctionInfo` per function/method carrying
everything the cross-module rules need:

* symbolic **taint** for the return value and every call-site argument
  (:class:`~repro.analysis.flow.taint.TaintVal`),
* **call sites** with name-resolution candidates (the approximate call
  graph),
* **float-op sites** (candidate RT102 escapes) and **mutation sites**
  (candidate RT104 impurities).

Name resolution is deliberately approximate (and documented as such in
DESIGN.md §3.7): a call resolves through import bindings, module-local
definitions, ``self.method(...)`` within a class, and locals whose type
was inferred from a constructor assignment (``cache = ResultCache(...);
cache.key(...)``).  Calls on values of unknown type stay unresolved and
propagate taint structurally (result = receiver ∪ arguments) — sound
for taint, underapproximate for reachability.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.lint import _scan_suppressions  # shared noqa scanner
from repro.analysis.rules.time_discipline import is_time_valued
from repro.analysis.flow.taint import (
    EMPTY,
    FACTORY_TYPES,
    MUTATOR_METHODS,
    RNG,
    TaintVal,
    VOLATILE,
    VOLATILE_SUBSCRIPTS,
    call_result_taint,
    of,
)

__all__ = [
    "CallSite",
    "FloatOpSite",
    "Mutation",
    "FunctionInfo",
    "ModuleSummary",
    "ProjectModel",
    "build_model",
    "extract_module",
]

#: Methods on RNG objects that *draw* — results are deterministic given
#: the seeded stream, so they carry no taint of their own.
_RNG_DRAWS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "expovariate", "gauss", "normalvariate",
        "getrandbits", "randbytes", "triangular", "betavariate", "integers",
        "standard_normal", "normal", "exponential", "poisson", "permutation",
    }
)

_BLOCK_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")


# ---------------------------------------------------------------------------
# Summary records (everything the rules need, no ASTs).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CallSite:
    """One call expression, with resolution candidates and arg taint."""

    key: tuple[int, int]  # (line, col) — stable within the function
    callee: tuple[str, ...]  # dotted-name candidates ('' = unresolved)
    attr: str  # last attribute for method calls ("spec_hash"), else ""
    display: str  # source-ish rendering of the callee for messages
    args: tuple[TaintVal, ...] = ()
    kwargs: tuple[tuple[str, TaintVal], ...] = ()
    bound: bool = False  # instance call: args map to params[1:]

    @property
    def line(self) -> int:
        return self.key[0]

    @property
    def column(self) -> int:
        return self.key[1]

    def all_args(self) -> tuple[TaintVal, ...]:
        return self.args + tuple(tv for _, tv in self.kwargs)

    def matches(self, suffixes: Iterable[str]) -> bool:
        """True when any candidate dotted name ends with one of
        *suffixes* (``a.b.c`` matches suffix ``b.c`` and ``c``)."""
        for s in suffixes:
            for cand in self.callee:
                if cand == s or cand.endswith("." + s):
                    return True
        return False


@dataclass(frozen=True)
class FloatOpSite:
    """A float operation that would leak exactness out of a time value."""

    key: tuple[int, int]
    op: str  # "div" | "mul" | "add" | "sub" | "float"
    operand: TaintVal  # the side that must not be time-valued
    other: TaintVal | None  # div: the divisor (time/time ratios are fine)
    display: str
    local_time_valued: bool  # RT001's per-file heuristic already sees it


@dataclass(frozen=True)
class Mutation:
    """An in-place write through a parameter or module-level object."""

    key: tuple[int, int]
    target: str  # dotted chain, e.g. "system.tasks.append"
    root: str  # "self" | "param" | "global"
    kind: str  # "assign" | "augassign" | "call"


@dataclass
class FunctionInfo:
    """Flow summary of one function or method."""

    module: str
    qual: str  # "func" or "Class.method"
    line: int
    params: tuple[str, ...]
    is_method: bool
    ret: TaintVal = EMPTY
    ret_closure: TaintVal | None = None
    calls: tuple[CallSite, ...] = ()
    float_ops: tuple[FloatOpSite, ...] = ()
    mutations: tuple[Mutation, ...] = ()

    @property
    def fqn(self) -> str:
        return f"{self.module}.{self.qual}"

    def call_at(self, key: tuple[int, int]) -> CallSite | None:
        index = self.__dict__.get("_call_index")
        if index is None:
            index = {site.key: site for site in self.calls}
            self.__dict__["_call_index"] = index
        return index.get(key)


@dataclass
class ModuleSummary:
    """Everything the flow layer keeps about one parsed module."""

    module: str
    path: str
    bindings: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: tuple[str, ...] = ()
    suppressions: dict[int, set[str] | None] = field(default_factory=dict)
    parse_error: str | None = None


# ---------------------------------------------------------------------------
# Per-module extraction.
# ---------------------------------------------------------------------------

def _import_bindings(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name → dotted target for every import statement."""
    out: dict[str, str] = {}
    pkg_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    out[item.asname] = item.name
                else:
                    # ``import a.b.c`` binds the top-level name ``a``.
                    top = item.name.split(".")[0]
                    out[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against this module's package.
                base = pkg_parts[: len(pkg_parts) - node.level]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for item in node.names:
                if item.name == "*":
                    continue
                target = f"{prefix}.{item.name}" if prefix else item.name
                out[item.asname or item.name] = target
    return out


def _dotted_chain(node: ast.AST) -> tuple[str, list[str]] | None:
    """``a.b.c`` → ``("a", ["b", "c"])`` when rooted at a plain Name."""
    attrs: list[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return node.id, list(reversed(attrs))
    return None


def _display(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<expr>"


def _is_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float


class _FunctionExtractor:
    """Two-pass flow-insensitive abstract interpretation of one body."""

    def __init__(
        self,
        summary: ModuleSummary,
        fdef: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        class_name: str | None,
    ):
        self.summary = summary
        self.module = summary.module
        self.bindings = summary.bindings
        self.fdef = fdef
        self.class_name = class_name
        decorators = {
            d.id for d in fdef.decorator_list if isinstance(d, ast.Name)
        }
        self.is_method = class_name is not None and "staticmethod" not in decorators
        args = fdef.args
        params = [
            a.arg
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
        ]
        self.info = FunctionInfo(
            module=self.module,
            qual=qual,
            line=fdef.lineno,
            params=tuple(params),
            is_method=self.is_method,
        )
        self.env: dict[str, TaintVal] = {
            name: TaintVal(params=frozenset({i})) for i, name in enumerate(params)
        }
        self.types: dict[str, str] = {}
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            resolved = self._annotation_type(a.annotation)
            if resolved is not None:
                self.types[a.arg] = resolved
        self.locals: set[str] = {
            n.id
            for n in ast.walk(fdef)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        self._calls: dict[tuple[int, int], CallSite] = {}
        self._float_ops: dict[tuple[int, int], FloatOpSite] = {}
        self._mutations: dict[tuple[int, int], Mutation] = {}
        self._ret: TaintVal = EMPTY
        self._ret_closure: TaintVal | None = None

    def extract(self) -> FunctionInfo:
        # Two passes so loop-carried assignments reach their uses.
        for _ in range(2):
            self._ret = EMPTY
            self._exec_block(self.fdef.body)
        self.info.ret = self._ret
        self.info.ret_closure = self._ret_closure
        self.info.calls = tuple(
            self._calls[k] for k in sorted(self._calls)
        )
        self.info.float_ops = tuple(
            self._float_ops[k] for k in sorted(self._float_ops)
        )
        self.info.mutations = tuple(
            self._mutations[k] for k in sorted(self._mutations)
        )
        return self.info

    # -- statements --------------------------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            tv = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, tv, stmt.value, kind="assign")
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value), stmt.value, kind="assign")
        elif isinstance(stmt, ast.AugAssign):
            tv = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self.env.get(stmt.target.id, EMPTY) | tv
            else:
                self._record_mutation(stmt.target, kind="augassign")
        elif isinstance(stmt, (ast.Return,)):
            if stmt.value is not None:
                tv = self._eval(stmt.value)
                if tv.closure is not None:
                    cl = tv.closure
                    self._ret_closure = cl if self._ret_closure is None else self._ret_closure | cl
                self._ret = self._ret | tv.drop_closure()
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.env[stmt.name] = self._closure_value(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            tv = self._eval(stmt.iter)
            self._bind_target(stmt.target, tv)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tv = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, tv)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        else:
            # match statements and anything new: walk nested blocks.
            for name in _BLOCK_FIELDS:
                for child in getattr(stmt, name, ()) or ():
                    if isinstance(child, ast.stmt):
                        self._exec(child)
                    elif hasattr(child, "body"):
                        self._exec_block(child.body)

    def _assign(
        self, target: ast.expr, tv: TaintVal, value: ast.expr, kind: str
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = tv
            inferred = self._infer_type(value)
            if inferred is not None:
                self.types[target.id] = inferred
            elif target.id in self.types:
                del self.types[target.id]
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, tv, value, kind)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._record_mutation(target, kind=kind)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tv, value, kind)

    def _bind_target(self, target: ast.expr, tv: TaintVal) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = tv
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, tv)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, tv)

    def _infer_type(self, value: ast.expr) -> str | None:
        """``x = ResultCache(...)`` → ``repro.exec.cache.ResultCache``."""
        if not isinstance(value, ast.Call):
            return None
        resolved = self._resolve_callable(value.func)
        if resolved is None:
            return None
        candidates, _bound, _attr = resolved
        for cand in candidates:
            if cand in FACTORY_TYPES:
                return FACTORY_TYPES[cand]
            last = cand.rsplit(".", 1)[-1]
            if last[:1].isupper():
                return cand
        return None

    def _annotation_type(self, ann: ast.expr | None) -> str | None:
        """Resolve a parameter annotation to a class dotted name.

        Handles plain names, dotted names, string annotations and
        ``X | None`` / ``Optional[X]`` wrappers; anything fancier is
        left untyped (no edge rather than a wrong edge).
        """
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            for side in (ann.left, ann.right):
                resolved = self._annotation_type(side)
                if resolved is not None:
                    return resolved
            return None
        if isinstance(ann, ast.Subscript):
            chain = _dotted_chain(ann.value)
            if chain is not None and chain[1][-1:] == ("Optional",) or (
                chain is not None and not chain[1] and chain[0] == "Optional"
            ):
                return self._annotation_type(ann.slice)
            return None
        chain = _dotted_chain(ann)
        if chain is None:
            return None
        root, attrs = chain
        name = attrs[-1] if attrs else root
        if not name[:1].isupper() or name == "Optional":
            return None
        if not attrs:
            if root in self.summary.classes:
                return f"{self.module}.{root}"
            base = self.bindings.get(root)
            return base
        base = self.bindings.get(root)
        if base is None:
            return None
        return ".".join([base, *attrs])

    # -- mutations ----------------------------------------------------------

    def _record_mutation(self, target: ast.expr, *, kind: str) -> None:
        chain = _dotted_chain(
            target.value if isinstance(target, ast.Subscript) else target
        )
        if chain is None:
            return
        root, attrs = chain
        if self.is_method and self.info.params and root == self.info.params[0]:
            root_kind = "self"
        elif root in self.info.params:
            root_kind = "param"
        elif root in self.locals:
            return
        else:
            root_kind = "global"
        dotted = ".".join([root, *attrs])
        key = (target.lineno, target.col_offset)
        self._mutations[key] = Mutation(key=key, target=dotted, root=root_kind, kind=kind)

    # -- expressions ---------------------------------------------------------

    def _eval(self, node: ast.expr | None) -> TaintVal:
        if node is None or isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Attribute):
            return self._eval(node.value).drop_closure()
        if isinstance(node, ast.Subscript):
            chain = _dotted_chain(node.value)
            if chain is not None:
                root, attrs = chain
                dotted = ".".join([self.bindings.get(root, root), *attrs])
                if dotted in VOLATILE_SUBSCRIPTS:
                    return of(VOLATILE)
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.BoolOp):
            out = EMPTY
            for v in node.values:
                out = out | self._eval(v)
            return out
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for c in node.comparators:
                self._eval(c)
            return EMPTY  # booleans carry no taint we track
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, (ast.JoinedStr,)):
            out = EMPTY
            for v in node.values:
                if isinstance(v, ast.FormattedValue):
                    out = out | self._eval(v.value)
            return out
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out = EMPTY
            for elt in node.elts:
                out = out | self._eval(elt)
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for k in node.keys:
                if k is not None:
                    out = out | self._eval(k)
            for v in node.values:
                out = out | self._eval(v)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                tv = self._eval(gen.iter)
                self._bind_target(gen.target, tv)
            if isinstance(node, ast.DictComp):
                return self._eval(node.key) | self._eval(node.value)
            return self._eval(node.elt)
        if isinstance(node, ast.Lambda):
            return self._closure_value(node)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            tv = self._eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = tv
            return tv
        return EMPTY

    def _closure_value(
        self, node: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef
    ) -> TaintVal:
        """Taint captured by a nested callable (free names only)."""
        args = node.args
        bound = {
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        }
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
        if not isinstance(node, ast.Lambda):
            bound |= {
                n.id
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
            bound.add(node.name)
        captured = EMPTY
        for sub in ast.walk(node.body if isinstance(node, ast.Lambda) else node):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id not in bound
                and sub.id in self.env
            ):
                captured = captured | self.env[sub.id].drop_closure()
        if captured.is_empty:
            return EMPTY
        return TaintVal(closure=captured)

    def _eval_binop(self, node: ast.BinOp) -> TaintVal:
        left = self._eval(node.left)
        right = self._eval(node.right)
        key = (node.lineno, node.col_offset)
        local = is_time_valued(node.left) or is_time_valued(node.right)
        if isinstance(node.op, ast.Div):
            self._float_ops[key] = FloatOpSite(
                key=key,
                op="div",
                operand=left,
                other=right,
                display=_display(node),
                local_time_valued=local,
            )
        elif isinstance(node.op, (ast.Mult, ast.Add, ast.Sub)):
            for literal, side_tv, side_node in (
                (node.left, right, node.right),
                (node.right, left, node.left),
            ):
                if _is_float_literal(literal):
                    self._float_ops[key] = FloatOpSite(
                        key=key,
                        op={ast.Mult: "mul", ast.Add: "add", ast.Sub: "sub"}[type(node.op)],
                        operand=side_tv,
                        other=None,
                        display=_display(node),
                        local_time_valued=is_time_valued(side_node),
                    )
                    break
        return left | right

    def _resolve_callable(
        self, func: ast.expr
    ) -> tuple[tuple[str, ...], bool, str] | None:
        """→ (candidate dotted names, bound?, attr) or None when the
        receiver's type is unknown."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.summary.functions or name in self.summary.classes:
                return (f"{self.module}.{name}",), False, ""
            if name in self.bindings:
                return (self.bindings[name],), False, ""
            if name in self.env:
                return None  # a local callable value
            return (name,), False, ""  # builtin or unknown global
        if isinstance(func, ast.Attribute):
            chain = _dotted_chain(func)
            if chain is None:
                return None
            root, attrs = chain
            attr = attrs[-1]
            if (
                self.is_method
                and self.info.params
                and root == self.info.params[0]
                and len(attrs) == 1
            ):
                return (f"{self.module}.{self.class_name}.{attr}",), True, attr
            if root in self.types and len(attrs) == 1:
                return (f"{self.types[root]}.{attr}",), True, attr
            if root in self.env:
                return None  # method on a tracked value
            base = self.bindings.get(root)
            if base is None and (
                root in self.summary.classes or root in self.summary.functions
            ):
                base = f"{self.module}.{root}"
            if base is None:
                return None
            return (".".join([base, *attrs]),), False, attr
        return None

    def _eval_call(self, node: ast.Call) -> TaintVal:
        args = tuple(self._eval(a) for a in node.args)
        kwargs = tuple(
            (kw.arg, self._eval(kw.value)) for kw in node.keywords if kw.arg
        )
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs splat
                kwargs = kwargs + (("**", self._eval(kw.value)),)
        key = (node.lineno, node.col_offset)
        resolved = self._resolve_callable(node.func)
        arg_union = EMPTY
        for tv in args:
            arg_union = arg_union | tv
        for _, tv in kwargs:
            arg_union = arg_union | tv

        attr = node.func.attr if isinstance(node.func, ast.Attribute) else ""
        if resolved is None:
            candidates: tuple[str, ...] = ()
            bound = isinstance(node.func, ast.Attribute)
        else:
            candidates, bound, attr = resolved

        self._calls[key] = CallSite(
            key=key,
            callee=candidates,
            attr=attr,
            display=_display(node.func),
            args=args,
            kwargs=kwargs,
            bound=bound,
        )

        # float(<time value>) is an RT102 candidate like a float BinOp.
        if candidates == ("float",) and node.args:
            self._float_ops[key] = FloatOpSite(
                key=key,
                op="float",
                operand=args[0],
                other=None,
                display=_display(node),
                local_time_valued=is_time_valued(node.args[0]),
            )

        # In-place mutator methods on shared objects (RT104 evidence).
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATOR_METHODS:
            self._record_mutation_call(node.func)

        if candidates:
            classified = call_result_taint(candidates)
            if classified is not None:
                return classified
            if candidates == ("functools.partial",) or candidates[0].endswith(
                ".partial"
            ):
                return TaintVal(closure=arg_union) if not arg_union.is_empty else EMPTY
            return TaintVal(calls=frozenset({key}))

        # Unresolved method call: structural propagation.
        base = self._eval(node.func.value) if isinstance(node.func, ast.Attribute) else EMPTY
        if attr in _RNG_DRAWS and base.kinds == frozenset({RNG}) and not (
            base.params or base.calls
        ):
            return EMPTY  # a draw from a seeded stream is deterministic
        if attr in _RNG_DRAWS:
            # Draw from a possibly-rng receiver: never treat the result
            # as an RNG object, and do not forward symbolic rng taint.
            return EMPTY
        return base.drop_closure() | arg_union

    def _record_mutation_call(self, func: ast.Attribute) -> None:
        chain = _dotted_chain(func)
        if chain is None:
            return
        root, attrs = chain
        if self.is_method and self.info.params and root == self.info.params[0]:
            root_kind = "self"
            if len(attrs) == 1:
                return  # self.append(...) — own container, per-file land
        elif root in self.info.params:
            root_kind = "param"
        elif root in self.locals:
            return
        elif root in self.bindings or root in self.summary.functions:
            return  # module alias / function — not a data mutation target
        else:
            root_kind = "global"
        key = (func.lineno, func.col_offset)
        dotted = ".".join([root, *attrs])
        self._mutations[key] = Mutation(key=key, target=dotted, root=root_kind, kind="call")


def extract_module(source: str, *, module: str, path: str) -> ModuleSummary:
    """Parse *source* and distil its flow summary."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return ModuleSummary(
            module=module,
            path=path,
            parse_error=f"cannot parse: {exc.msg}",
        )
    summary = ModuleSummary(
        module=module,
        path=path,
        suppressions=_scan_suppressions(source),
    )
    summary.bindings = _import_bindings(tree, module)
    classes: list[str] = []
    targets: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, str | None]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            targets.append((node, node.name, None))
        elif isinstance(node, ast.ClassDef):
            classes.append(node.name)
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    targets.append((sub, f"{node.name}.{sub.name}", node.name))
    summary.classes = tuple(classes)
    # Names must be known before extraction so module-local calls and
    # ctor-type inference resolve; register stubs first.
    for _node, qual, _cls in targets:
        summary.functions[qual] = FunctionInfo(
            module=module, qual=qual, line=_node.lineno, params=(), is_method=False
        )
    for node, qual, cls in targets:
        summary.functions[qual] = _FunctionExtractor(summary, node, qual, cls).extract()
    return summary


# ---------------------------------------------------------------------------
# Project assembly.
# ---------------------------------------------------------------------------

def _module_files(root: Path) -> list[tuple[str, Path]]:
    """``(dotted module name, file)`` pairs under *root*.

    A directory containing ``__init__.py`` is a package named after the
    directory; nested packages extend the dotted path.  Loose ``.py``
    files in a plain directory become top-level modules.
    """
    out: list[tuple[str, Path]] = []

    def walk(directory: Path, prefix: str) -> None:
        for entry in sorted(directory.iterdir()):
            if entry.is_dir():
                if (entry / "__init__.py").exists():
                    walk(entry, f"{prefix}{entry.name}.")
                continue
            if entry.suffix != ".py":
                continue
            if entry.name == "__init__.py":
                name = prefix.rstrip(".")
                if name:
                    out.append((name, entry))
                continue
            out.append((f"{prefix}{entry.stem}", entry))

    root = Path(root)
    if root.is_file():
        return [(root.stem, root)]
    walk(root, f"{root.name}." if (root / "__init__.py").exists() else "")
    return out


@dataclass
class ProjectModel:
    """All module summaries plus the derived call graph."""

    modules: dict[str, ModuleSummary] = field(default_factory=dict)

    @property
    def functions(self) -> dict[str, FunctionInfo]:
        cached = self.__dict__.get("_functions")
        if cached is None:
            cached = {
                info.fqn: info
                for summary in self.modules.values()
                for info in summary.functions.values()
            }
            self.__dict__["_functions"] = cached
        return cached

    def call_graph(self) -> dict[str, tuple[str, ...]]:
        """Resolved internal edges: caller fqn → sorted callee fqns."""
        graph: dict[str, tuple[str, ...]] = {}
        for fqn, info in self.functions.items():
            edges = {
                cand
                for site in info.calls
                for cand in site.callee
                if cand in self.functions
            }
            graph[fqn] = tuple(sorted(edges))
        return graph

    def reachable_from(self, patterns: Iterable[str]) -> set[str]:
        """Functions reachable (inclusive) from fqns matching *patterns*
        (``fnmatch`` syntax) over the resolved call graph."""
        graph = self.call_graph()
        pats = tuple(patterns)
        roots = {
            fqn for fqn in graph if any(fnmatchcase(fqn, p) for p in pats)
        }
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            for callee in graph.get(frontier.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    def summary_for(self, fqn_or_module: str) -> ModuleSummary | None:
        return self.modules.get(fqn_or_module)

    def suppressed(self, module: str, line: int, code: str) -> bool:
        summary = self.modules.get(module)
        if summary is None or line not in summary.suppressions:
            return False
        codes = summary.suppressions[line]
        return codes is None or code in codes


def build_model(paths: Sequence[str | Path]) -> ProjectModel:
    """Parse every module under *paths* (files or package/dir roots)."""
    model = ProjectModel()
    for root in paths:
        for module, file in _module_files(Path(root)):
            model.modules[module] = extract_module(
                file.read_bytes().decode("utf-8", "surrogatepass"),
                module=module,
                path=str(file),
            )
    return model

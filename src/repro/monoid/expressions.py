"""Expression IR for the monoid comprehension calculus.

Expressions appear in comprehension heads, filter predicates, and generator
sources.  The IR is a small, immutable tree; every node supports structural
equality, free-variable computation, and substitution — the three things the
normalizer (``repro.monoid.normalize``) needs.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable

from .._records import Record


class Expr(Record, frozen=True):
    """Base class for all calculus expressions."""

    def free_vars(self) -> set[str]:
        raise NotImplementedError

    def substitute(self, mapping: dict[str, "Expr"]) -> "Expr":
        """Capture-naive substitution of variables by expressions.

        The translator generates fresh variable names for every binder, so
        capture cannot occur in practice; the normalizer relies on this.
        """
        raise NotImplementedError

    def children(self) -> list["Expr"]:
        raise NotImplementedError

    def __getstate__(self) -> dict[str, Any]:
        """The fields only: the function :func:`compiled` caches on a node
        neither pickles nor needs to — a worker compiles its own."""
        state = dict(vars(self))
        state.pop("_compiled", None)
        return state


class Const(Expr, frozen=True):
    """A literal value (number, string, bool, None)."""

    value: Any

    def free_vars(self) -> set[str]:
        return set()

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        return self

    def children(self) -> list[Expr]:
        return []

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Var(Expr, frozen=True):
    """A bound variable reference."""

    name: str

    def free_vars(self) -> set[str]:
        return {self.name}

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def children(self) -> list[Expr]:
        return []

    def __repr__(self) -> str:
        return f"Var({self.name})"


class Proj(Expr, frozen=True):
    """Record projection ``expr.field``."""

    source: Expr
    attr: str

    def free_vars(self) -> set[str]:
        return self.source.free_vars()

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        return Proj(self.source.substitute(mapping), self.attr)

    def children(self) -> list[Expr]:
        return [self.source]

    def __repr__(self) -> str:
        return f"{self.source!r}.{self.attr}"


class RecordCons(Expr, frozen=True):
    """Record construction ``{a: e1, b: e2}``.

    ``fields`` is a tuple of (name, expr) pairs to keep the node hashable and
    the field order deterministic.
    """

    fields: tuple[tuple[str, Expr], ...]

    @staticmethod
    def of(**kwargs: Expr) -> "RecordCons":
        return RecordCons(tuple(kwargs.items()))

    def field_map(self) -> dict[str, Expr]:
        return dict(self.fields)

    def free_vars(self) -> set[str]:
        out: set[str] = set()
        for _, expr in self.fields:
            out |= expr.free_vars()
        return out

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        return RecordCons(
            tuple((name, expr.substitute(mapping)) for name, expr in self.fields)
        )

    def children(self) -> list[Expr]:
        return [expr for _, expr in self.fields]


class BinOp(Expr, frozen=True):
    """Binary operation; ``op`` is a symbol like ``+`` ``==`` ``and``."""

    op: str
    left: Expr
    right: Expr

    def free_vars(self) -> set[str]:
        return self.left.free_vars() | self.right.free_vars()

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        return BinOp(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def children(self) -> list[Expr]:
        return [self.left, self.right]

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expr, frozen=True):
    op: str  # "not" or "-"
    operand: Expr

    def free_vars(self) -> set[str]:
        return self.operand.free_vars()

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        return UnaryOp(self.op, self.operand.substitute(mapping))

    def children(self) -> list[Expr]:
        return [self.operand]


class Call(Expr, frozen=True):
    """Function application ``name(args...)``.

    Functions are resolved against the evaluator's function registry; UDFs
    defined as comprehensions are inlined by the normalizer before execution.
    """

    name: str
    args: tuple[Expr, ...]

    def free_vars(self) -> set[str]:
        out: set[str] = set()
        for arg in self.args:
            out |= arg.free_vars()
        return out

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        return Call(self.name, tuple(a.substitute(mapping) for a in self.args))

    def children(self) -> list[Expr]:
        return list(self.args)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


class If(Expr, frozen=True):
    """Conditional expression ``if cond then then_branch else else_branch``."""

    cond: Expr
    then_branch: Expr
    else_branch: Expr

    def free_vars(self) -> set[str]:
        return (
            self.cond.free_vars()
            | self.then_branch.free_vars()
            | self.else_branch.free_vars()
        )

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        return If(
            self.cond.substitute(mapping),
            self.then_branch.substitute(mapping),
            self.else_branch.substitute(mapping),
        )

    def children(self) -> list[Expr]:
        return [self.cond, self.then_branch, self.else_branch]


class Lambda(Expr, frozen=True):
    """Anonymous function: evaluates to a Python closure over its body."""

    params: tuple[str, ...]
    body: Expr

    def free_vars(self) -> set[str]:
        return self.body.free_vars() - set(self.params)

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        inner = {k: v for k, v in mapping.items() if k not in self.params}
        return Lambda(self.params, self.body.substitute(inner))

    def children(self) -> list[Expr]:
        return [self.body]


class Merge(Expr, frozen=True):
    """Explicit monoid merge ``left ⊕ right``.

    Produced by the if-split normalization rule, which turns a comprehension
    whose head is a conditional into the merge of two simpler comprehensions
    (§4.2, "splits if-then-else expressions in two comprehensions").
    """

    monoid: Any  # a Monoid; typed loosely to avoid an import cycle
    left: Expr
    right: Expr

    def free_vars(self) -> set[str]:
        return self.left.free_vars() | self.right.free_vars()

    def substitute(self, mapping: dict[str, Expr]) -> Expr:
        return Merge(self.monoid, self.left.substitute(mapping), self.right.substitute(mapping))

    def children(self) -> list[Expr]:
        return [self.left, self.right]


# ---------------------------------------------------------------------- #
# Evaluation
# ---------------------------------------------------------------------- #

def _null_safe(compare: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """An ordered comparison under SQL's rule that unknown filters the row:
    a ``None`` operand compares ``False`` instead of raising ``TypeError``
    (the same rule as ``dc_kernel.null_safe_compare``).  Genuinely
    mixed-type operands still raise."""
    return lambda a, b: a is not None and b is not None and compare(a, b)


# Shared with ``vectorized.eval_column``, so the evaluators cannot disagree
# on what an operator means.
BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": _null_safe(lambda a, b: a < b),
    "<=": _null_safe(lambda a, b: a <= b),
    ">": _null_safe(lambda a, b: a > b),
    ">=": _null_safe(lambda a, b: a >= b),
}


def project(source: Any, attr: str) -> Any:
    """``source.attr`` for a dict record or any attribute-bearing object."""
    if isinstance(source, dict):
        try:
            return source[attr]
        except KeyError:
            raise KeyError(
                f"record has no attribute {attr!r}; has {sorted(source)}"
            ) from None
    return getattr(source, attr)


def evaluate(expr: Expr, env: dict[str, Any], funcs: dict[str, Callable] | None = None) -> Any:
    """Interpret an expression under an environment and function registry.

    The calculus-level interpreter and the reference :func:`compiled` is
    tested against; the engine's hot paths run the compiled form.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise NameError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Proj):
        return project(evaluate(expr.source, env, funcs), expr.attr)
    if isinstance(expr, RecordCons):
        return {name: evaluate(sub, env, funcs) for name, sub in expr.fields}
    if isinstance(expr, BinOp):
        if expr.op == "and":
            return bool(evaluate(expr.left, env, funcs)) and bool(
                evaluate(expr.right, env, funcs)
            )
        if expr.op == "or":
            return bool(evaluate(expr.left, env, funcs)) or bool(
                evaluate(expr.right, env, funcs)
            )
        try:
            op = BINOPS[expr.op]
        except KeyError:
            raise ValueError(f"unknown binary operator {expr.op!r}") from None
        return op(evaluate(expr.left, env, funcs), evaluate(expr.right, env, funcs))
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, env, funcs)
        if expr.op == "not":
            return not value
        if expr.op == "-":
            return -value
        raise ValueError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Call):
        registry = funcs or {}
        if expr.name not in registry:
            raise NameError(f"unknown function {expr.name!r}")
        args = [evaluate(a, env, funcs) for a in expr.args]
        return registry[expr.name](*args)
    if isinstance(expr, If):
        if evaluate(expr.cond, env, funcs):
            return evaluate(expr.then_branch, env, funcs)
        return evaluate(expr.else_branch, env, funcs)
    if isinstance(expr, Lambda):
        def closure(*values: Any, _expr: Lambda = expr) -> Any:
            local = dict(env)
            local.update(zip(_expr.params, values))
            return evaluate(_expr.body, local, funcs)

        return closure
    if isinstance(expr, Merge):
        return expr.monoid.merge(
            evaluate(expr.left, env, funcs), evaluate(expr.right, env, funcs)
        )
    # ``.comprehension`` imports this module, so its names resolve here, on
    # the one node type that needs them, not at the top of every call.
    from .comprehension import Comprehension, evaluate_comprehension

    if isinstance(expr, Comprehension):
        return evaluate_comprehension(expr, env, funcs)
    raise TypeError(f"cannot evaluate expression of type {type(expr).__name__}")


def call_names(expr: Expr) -> set[str]:
    """Every function name a :class:`Call` in this tree references."""
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Call):
            names.add(node.name)
        stack.extend(node.children())
    return names


# ---------------------------------------------------------------------- #
# Compilation (Fig. 2's code generator, at the expression level)
# ---------------------------------------------------------------------- #

_INFIX = ("+", "-", "*", "/", "%", "==", "!=")
_ORDERED = ("<", "<=", ">", ">=")
# The parser refuses more than 200 nested brackets and a node's template
# nests its operands at most 3 deep, so a deeper tree compiles in pieces.
_MAX_DEPTH = 32


def _compile(expr: Expr) -> tuple[str, list[Any]]:
    """Python source for ``expr`` over ``env`` and ``funcs``, plus the values
    it refers to as ``K0, K1, ...`` — what source text cannot spell:
    constants (bound by reference, so ``inf``, ``nan`` and unhashable values
    work), subtrees handed to the interpreter, and the compiled functions of
    subtrees nested deeper than the parser accepts in one expression."""
    bound: list[Any] = []
    temps = itertools.count()

    def bind(value: Any) -> str:
        bound.append(value)
        return f"K{len(bound) - 1}"

    def emit(e: Expr, depth: int = 0) -> str:
        def sub(child: Expr) -> str:
            return emit(child, depth + 1)

        if depth == _MAX_DEPTH:
            return f"{bind(compiled(e))}(env, funcs)"
        if isinstance(e, Const):
            return bind(e.value)
        if isinstance(e, Var):
            return f"env[{e.name!r}]"
        if isinstance(e, Proj):
            # Plain dict records (table rows, group records) subscript
            # inline; dict subclasses and objects go through project().
            t = f"t{next(temps)}"
            return (
                f"({t}[{e.attr!r}] if type({t} := {sub(e.source)}) is dict "
                f"else project({t}, {e.attr!r}))"
            )
        if isinstance(e, RecordCons):
            return "{" + ", ".join(f"{n!r}: {sub(field)}" for n, field in e.fields) + "}"
        if isinstance(e, BinOp) and e.op in ("and", "or"):
            return f"(bool({sub(e.left)}) {e.op} bool({sub(e.right)}))"
        if isinstance(e, BinOp) and e.op in _INFIX:
            return f"({sub(e.left)} {e.op} {sub(e.right)})"
        if isinstance(e, BinOp) and e.op in _ORDERED:
            # BINOPS' null-safe rule; ``&`` evaluates both operands first,
            # as evaluate() does.
            a, b = f"t{next(temps)}", f"t{next(temps)}"
            return (
                f"((({a} := {sub(e.left)}) is not None) & "
                f"(({b} := {sub(e.right)}) is not None) and {a} {e.op} {b})"
            )
        if isinstance(e, UnaryOp) and e.op in ("not", "-"):
            return f"({e.op} {sub(e.operand)})"
        if isinstance(e, Call):
            return f"funcs[{e.name!r}]({', '.join(map(sub, e.args))})"
        if isinstance(e, If):
            return f"({sub(e.then_branch)} if {sub(e.cond)} else {sub(e.else_branch)})"
        # Lambda, Comprehension, Merge, operators without a template: the
        # subtree is interpreted, so it means and fails exactly as
        # evaluate() says.
        return f"evaluate({bind(e)}, env, funcs)"

    source = emit(expr)
    emit = None  # it refers to itself: without this the pair waits for the cycle collector
    return source, bound


def compile_expr(expr: Expr) -> str:
    """The Python expression :func:`compiled` runs for ``expr`` (for
    inspection; ``K<i>`` are values bound by reference)."""
    return _compile(expr)[0]


@functools.lru_cache(maxsize=512)
def _builder(source: str) -> Callable[..., Callable]:
    """Run ``source`` (a ``def build``) once per distinct text: every
    recompilation of a query, and every partition's task in a worker, then
    costs one emit pass instead of a Python compile."""
    scope: dict[str, Any] = {}
    # This module's globals, so ``evaluate`` and ``project`` resolve when
    # the generated function is called.
    exec(source, globals(), scope)
    return scope["build"]


def compiled(expr: Expr) -> Callable[[dict[str, Any], dict[str, Callable] | None], Any]:
    """``expr`` as a plain Python function of ``(env, funcs)``: no tree walk
    per record.  Built once per node and cached on it.

    Results, exception types and messages are exactly :func:`evaluate`'s.
    The generated code does raw lookups; when one fails (an unbound
    variable, a missing attribute, an unknown function) the interpreter
    re-runs the expression and raises the error in its own words, so the
    messages exist in one place.
    """
    cached = vars(expr).get("_compiled")
    if cached is not None:
        return cached
    body, bound = _compile(expr)
    params = "".join(f"K{i}, " for i in range(len(bound)))
    build = _builder(
        f"def build({params}EXPR):\n"
        "    def run(env, funcs=None):\n"
        "        try:\n"
        f"            return {body}\n"
        "        except (KeyError, TypeError):\n"
        "            return evaluate(EXPR, env, funcs)\n"
        "    return run\n"
    )
    run = build(*bound, expr)
    object.__setattr__(expr, "_compiled", run)  # nodes are frozen records
    return run

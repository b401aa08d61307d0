"""Normalization of monoid comprehensions (§4.2, domain-agnostic rewrites).

The normalizer repeatedly applies the rewrite rules below until a fixpoint,
producing the "canonical" comprehension the algebraic translator consumes:

* **N-bind** (beta reduction): let-bindings ``v := e`` are inlined into the
  remaining qualifiers and the head.
* **N-flatten**: a generator ranging over a nested collection comprehension
  is spliced into the outer comprehension (query unnesting).
* **N-empty / N-singleton**: generators over statically-empty collections
  collapse the comprehension to the monoid zero; singleton generators become
  let-bindings.
* **N-static**: filters that are statically true are dropped; statically
  false filters collapse the comprehension to zero; constant expressions are
  folded (including projections on record constructors).
* **N-if-split**: a conditional head splits the comprehension into a merge
  of two guarded comprehensions, each further optimizable on its own.
* **N-exists**: an existential quantification used as a filter (an ``any``
  comprehension) is unnested into the outer qualifier list when the outer
  monoid is idempotent (the classical EXISTS rewrite).
* **N-pushdown**: filters move as early as their free variables allow.
"""

from __future__ import annotations

from .._records import Record, field
from .comprehension import Bind, Comprehension, Filter, Generator, Qualifier
from .expressions import (
    BinOp,
    Call,
    Const,
    Expr,
    If,
    Lambda,
    Merge,
    Proj,
    RecordCons,
    UnaryOp,
    Var,
)
from .monoids import AnyMonoid

_MAX_PASSES = 50


class NormalizationTrace(Record):
    """Names of the rules that fired, in order; used by tests and EXPLAIN."""

    applied: list[str] = field(default_factory=list)

    def note(self, rule: str) -> None:
        self.applied.append(rule)


def normalize(expr: Expr, trace: NormalizationTrace | None = None) -> Expr:
    """Rewrite ``expr`` to normal form (fixpoint of all rules)."""
    trace = trace if trace is not None else NormalizationTrace()
    current = expr
    for _ in range(_MAX_PASSES):
        before = current
        current = _rewrite(current, trace)
        if current == before:
            return current
    return current


def _rewrite(expr: Expr, trace: NormalizationTrace) -> Expr:
    """One bottom-up rewriting pass."""
    if isinstance(expr, Comprehension):
        return _rewrite_comprehension(expr, trace)
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Proj):
        source = _rewrite(expr.source, trace)
        if isinstance(source, RecordCons):
            fields = source.field_map()
            if expr.attr in fields:
                trace.note("N-static:proj-on-record")
                return fields[expr.attr]
        return Proj(source, expr.attr)
    if isinstance(expr, RecordCons):
        return RecordCons(
            tuple((name, _rewrite(sub, trace)) for name, sub in expr.fields)
        )
    if isinstance(expr, BinOp):
        return _fold_binop(
            BinOp(expr.op, _rewrite(expr.left, trace), _rewrite(expr.right, trace)),
            trace,
        )
    if isinstance(expr, UnaryOp):
        operand = _rewrite(expr.operand, trace)
        if isinstance(operand, Const):
            trace.note("N-static:unary-fold")
            return Const(not operand.value) if expr.op == "not" else Const(-operand.value)
        return UnaryOp(expr.op, operand)
    if isinstance(expr, Call):
        return Call(expr.name, tuple(_rewrite(a, trace) for a in expr.args))
    if isinstance(expr, If):
        cond = _rewrite(expr.cond, trace)
        if isinstance(cond, Const):
            trace.note("N-static:if-fold")
            branch = expr.then_branch if cond.value else expr.else_branch
            return _rewrite(branch, trace)
        return If(cond, _rewrite(expr.then_branch, trace), _rewrite(expr.else_branch, trace))
    if isinstance(expr, Lambda):
        return Lambda(expr.params, _rewrite(expr.body, trace))
    if isinstance(expr, Merge):
        return Merge(expr.monoid, _rewrite(expr.left, trace), _rewrite(expr.right, trace))
    return expr


def _fold_binop(expr: BinOp, trace: NormalizationTrace) -> Expr:
    left, right = expr.left, expr.right
    if isinstance(left, Const) and isinstance(right, Const):
        from .expressions import evaluate

        try:
            value = evaluate(expr, {}, {})
        except Exception:
            return expr
        trace.note("N-static:binop-fold")
        return Const(value)
    # Boolean short-circuits with one constant side.
    if expr.op == "and":
        if isinstance(left, Const):
            trace.note("N-static:and-fold")
            return right if left.value else Const(False)
        if isinstance(right, Const):
            trace.note("N-static:and-fold")
            return left if right.value else Const(False)
    if expr.op == "or":
        if isinstance(left, Const):
            trace.note("N-static:or-fold")
            return Const(True) if left.value else right
        if isinstance(right, Const):
            trace.note("N-static:or-fold")
            return Const(True) if right.value else left
    return expr


def _rewrite_comprehension(comp: Comprehension, trace: NormalizationTrace) -> Expr:
    # First rewrite all nested expressions bottom-up.
    qualifiers: list[Qualifier] = []
    for q in comp.qualifiers:
        if isinstance(q, Generator):
            qualifiers.append(Generator(q.var, _rewrite(q.source, trace)))
        elif isinstance(q, Filter):
            qualifiers.append(Filter(_rewrite(q.predicate, trace)))
        elif isinstance(q, Bind):
            qualifiers.append(Bind(q.var, _rewrite(q.expr, trace)))
    head = _rewrite(comp.head, trace)

    # N-bind: inline the first let-binding.
    for i, q in enumerate(qualifiers):
        if isinstance(q, Bind):
            trace.note("N-bind")
            mapping = {q.var: q.expr}
            rest = [
                _substitute_qualifier(r, mapping) for r in qualifiers[i + 1 :]
            ]
            return Comprehension(
                comp.monoid,
                head.substitute(mapping),
                tuple(qualifiers[:i] + rest),
            )

    # Generator-level rules.
    for i, q in enumerate(qualifiers):
        if not isinstance(q, Generator):
            continue
        source = q.source
        # N-flatten: var <- collection-comprehension.  Only plain collection
        # monoids may be spliced: iterating a *grouping* comprehension walks
        # its groups, not the records that built them, so group/multigroup
        # comprehensions must stay nested (they become Nest operators).
        if isinstance(source, Comprehension) and _is_flattenable(source.monoid):
            trace.note("N-flatten")
            spliced = (
                qualifiers[:i]
                + list(source.qualifiers)
                + [Bind(q.var, source.head)]
                + qualifiers[i + 1 :]
            )
            return Comprehension(comp.monoid, head, tuple(spliced))
        # N-empty / N-singleton over literal collections.
        if isinstance(source, Const) and isinstance(source.value, (list, tuple, frozenset, set)):
            items = list(source.value)
            if not items:
                trace.note("N-empty")
                return Const(comp.monoid.zero())
            if len(items) == 1:
                trace.note("N-singleton")
                replaced = (
                    qualifiers[:i]
                    + [Bind(q.var, Const(items[0]))]
                    + qualifiers[i + 1 :]
                )
                return Comprehension(comp.monoid, head, tuple(replaced))

    # Filter-level rules.
    for i, q in enumerate(qualifiers):
        if not isinstance(q, Filter):
            continue
        pred = q.predicate
        if isinstance(pred, Const):
            if pred.value:
                trace.note("N-static:true-filter")
                return Comprehension(
                    comp.monoid, head, tuple(qualifiers[:i] + qualifiers[i + 1 :])
                )
            trace.note("N-static:false-filter")
            return Const(comp.monoid.zero())
        # N-exists: unnest `any`-comprehension filters when safe.
        if (
            isinstance(pred, Comprehension)
            and isinstance(pred.monoid, AnyMonoid)
            and comp.monoid.idempotent
        ):
            trace.note("N-exists")
            spliced = (
                qualifiers[:i]
                + list(pred.qualifiers)
                + [Filter(pred.head)]
                + qualifiers[i + 1 :]
            )
            return Comprehension(comp.monoid, head, tuple(spliced))

    # N-if-split on the head (collection monoids only: merging two guarded
    # comprehensions needs ⊕ over collections to be cheap and order-free).
    if isinstance(head, If) and comp.monoid.collection and comp.monoid.commutative:
        trace.note("N-if-split")
        then_comp = Comprehension(
            comp.monoid, head.then_branch, tuple(qualifiers) + (Filter(head.cond),)
        )
        else_comp = Comprehension(
            comp.monoid,
            head.else_branch,
            tuple(qualifiers) + (Filter(UnaryOp("not", head.cond)),),
        )
        return Merge(comp.monoid, then_comp, else_comp)

    # N-pushdown: move each filter to the earliest legal slot.
    pushed = _push_filters(qualifiers)
    if pushed != qualifiers:
        trace.note("N-pushdown")
        qualifiers = pushed

    return Comprehension(comp.monoid, head, tuple(qualifiers))


def _substitute_qualifier(q: Qualifier, mapping: dict[str, Expr]) -> Qualifier:
    if isinstance(q, Generator):
        return Generator(q.var, q.source.substitute(mapping))
    if isinstance(q, Filter):
        return Filter(q.predicate.substitute(mapping))
    if isinstance(q, Bind):
        return Bind(q.var, q.expr.substitute(mapping))
    raise TypeError(f"unknown qualifier {q!r}")


def _push_filters(qualifiers: list[Qualifier]) -> list[Qualifier]:
    """Stable reordering placing every filter right after its dependencies.

    Filters sharing the same earliest legal slot keep their original
    relative order (the insertion point skips over already-placed filters),
    which makes the rewrite idempotent — repeated normalization passes reach
    a fixpoint instead of swapping equal-dependency filters forever.
    """
    out: list[Qualifier] = []
    bound: list[set[str]] = [set()]  # bound vars before each slot in `out`
    for q in qualifiers:
        if isinstance(q, Filter):
            needed = q.predicate.free_vars()
            # Earliest slot where all needed vars are bound.
            slot = len(out)
            for i in range(len(out), -1, -1):
                if needed <= bound[i]:
                    slot = i
                else:
                    break
            while slot < len(out) and isinstance(out[slot], Filter):
                slot += 1
            out.insert(slot, q)
            bound.insert(slot + 1, set(bound[slot]))
        else:
            out.append(q)
            binder = q.var if isinstance(q, (Generator, Bind)) else None
            new_bound = set(bound[-1])
            if binder:
                new_bound.add(binder)
            bound.append(new_bound)
    return out


def _is_flattenable(monoid) -> bool:
    """Collection monoids whose comprehensions may be generator-spliced."""
    return monoid.name in {"bag", "list", "set"}

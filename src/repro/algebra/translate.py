"""Lowering comprehensions to the nested relational algebra (§5).

The translator consumes *normalized* comprehensions and produces the
operators of ``repro.algebra.operators``.  It follows the Fegaras-Maier
construction pragmatically: qualifiers are folded left-to-right into a tree
of Scan/Join/Unnest/Select operators, and the head + output monoid become a
Reduce — or a Nest when the comprehension is a *grouping comprehension*.

Grouping comprehensions follow a structural convention established by the
CleanM de-sugarizer (``repro.core.rewriter``): their head is a record
``{key: <expr>, value: <expr>}`` (or ``{keys: <expr>, value: <expr>}`` for
multi-assignment groupings like token filtering) and their monoid is a
:class:`~repro.monoid.monoids.GroupMonoid` with the standard extractors.
This keeps them directly executable by the reference evaluator *and*
pattern-matchable here.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import PlanningError
from ..monoid.comprehension import Bind, Comprehension, Filter, Generator
from ..monoid.expressions import BinOp, Const, Expr, Proj, RecordCons, Var
from ..monoid.monoids import BagMonoid, GroupMonoid, Monoid, MultiGroupMonoid
from .operators import TRUE, AlgebraOp, Join, Nest, Reduce, Scan, Select, Unnest


def make_group_comprehension(
    key: Expr,
    value: Expr,
    qualifiers: Sequence,
    inner: Monoid | None = None,
    multi: bool = False,
) -> Comprehension:
    """Build a grouping comprehension in the standard structural form."""
    key_field = "keys" if multi else "key"
    head = RecordCons(((key_field, key), ("value", value)))
    if multi:
        monoid: Monoid = MultiGroupMonoid(
            keys_func=lambda r: r["keys"],
            inner=inner or BagMonoid(),
            value_func=lambda r: r["value"],
        )
    else:
        monoid = GroupMonoid(
            inner=inner or BagMonoid(),
            key_func=lambda r: r["key"],
            value_func=lambda r: r["value"],
        )
    return Comprehension(monoid, head, tuple(qualifiers))


def is_grouping(comp: Comprehension) -> bool:
    """True when a comprehension is in the standard grouping form."""
    if not isinstance(comp.monoid, (GroupMonoid, MultiGroupMonoid)):
        return False
    if not isinstance(comp.head, RecordCons):
        return False
    names = [name for name, _ in comp.head.fields]
    return names in (["key", "value"], ["keys", "value"])


def conjoin(conjuncts: Sequence[Expr]) -> Expr:
    out: Expr = TRUE
    for c in conjuncts:
        out = c if out == TRUE else BinOp("and", out, c)
    return out


class Translator:
    """Translates normalized comprehensions into algebraic plans.

    ``tables`` is the set of catalog names a generator may scan;
    ``formats`` optionally maps a table to its storage format.
    """

    def __init__(self, tables: set[str], formats: dict[str, str] | None = None):
        self.tables = tables
        self.formats = formats or {}

    # ------------------------------------------------------------------ #
    def translate(self, comp: Comprehension) -> AlgebraOp:
        """Translate a (normalized) comprehension to an algebra tree."""
        if is_grouping(comp):
            return self._translate_grouping(comp)

        tree: AlgebraOp | None = None
        bound: dict[str, AlgebraOp] = {}  # var -> subtree that bound it
        pending_filters: list[Expr] = []

        for q in comp.qualifiers:
            if isinstance(q, Generator):
                tree = self._add_generator(tree, bound, q)
            elif isinstance(q, Filter):
                pending_filters.append(q.predicate)
                tree = self._apply_filters(tree, bound, pending_filters)
            elif isinstance(q, Bind):
                raise PlanningError(
                    "translator expects normalized comprehensions "
                    f"(leftover binding {q!r}); run normalize() first"
                )
        if tree is None:
            raise PlanningError("comprehension has no generators")
        if pending_filters:
            tree = Select(tree, conjoin(pending_filters))
        return Reduce(tree, comp.monoid, comp.head)

    # ------------------------------------------------------------------ #
    def _translate_grouping(self, comp: Comprehension) -> Nest:
        head = comp.head
        assert isinstance(head, RecordCons)
        fields = head.field_map()
        multi = "keys" in fields
        key_expr = fields["keys"] if multi else fields["key"]
        value_expr = fields["value"]
        inner = comp.monoid.inner  # type: ignore[union-attr]

        tree: AlgebraOp | None = None
        bound: dict[str, AlgebraOp] = {}
        filters: list[Expr] = []
        for q in comp.qualifiers:
            if isinstance(q, Generator):
                tree = self._add_generator(tree, bound, q)
            elif isinstance(q, Filter):
                filters.append(q.predicate)
            elif isinstance(q, Bind):
                raise PlanningError("grouping comprehension not normalized")
        if tree is None:
            raise PlanningError("grouping comprehension has no generators")
        if filters:
            tree = Select(tree, conjoin(filters))
        nest = Nest(
            child=tree,
            key=key_expr,
            aggregates=(("partition", inner, value_expr),),
        )
        nest.multi = multi  # type: ignore[attr-defined]
        return nest

    # ------------------------------------------------------------------ #
    def _add_generator(
        self,
        tree: AlgebraOp | None,
        bound: dict[str, AlgebraOp],
        gen: Generator,
    ) -> AlgebraOp:
        source = gen.source
        branch: AlgebraOp
        if isinstance(source, Var) and source.name in self.tables:
            branch = Scan(
                source.name, gen.var, fmt=self.formats.get(source.name, "memory")
            )
        elif isinstance(source, Comprehension):
            if is_grouping(source):
                branch = self._translate_grouping(source)
                branch.var = gen.var
            else:
                inner = self.translate(source)
                if not isinstance(inner, Reduce):
                    raise PlanningError("nested comprehension did not lower to Reduce")
                inner.var = gen.var  # type: ignore[attr-defined]
                branch = inner
        elif isinstance(source, Proj):
            # A path over an already-bound variable: unnest.
            if tree is None:
                raise PlanningError(f"unnest path {source!r} with no bound input")
            return Unnest(tree, source, gen.var)
        else:
            raise PlanningError(f"cannot translate generator source {source!r}")

        bound[gen.var] = branch
        if tree is None:
            return branch
        return Join(tree, branch)

    def _apply_filters(
        self,
        tree: AlgebraOp | None,
        bound: dict[str, AlgebraOp],
        pending: list[Expr],
    ) -> AlgebraOp | None:
        """Fold eligible pending filters into the newest join as equi-keys."""
        if not isinstance(tree, Join) or tree.predicate != TRUE and not pending:
            return tree
        if not isinstance(tree, Join):
            return tree
        left_vars = _bound_vars(tree.left)
        right_vars = _bound_vars(tree.right)
        remaining: list[Expr] = []
        left_keys: list[Expr] = list(tree.left_keys)
        right_keys: list[Expr] = list(tree.right_keys)
        residual: list[Expr] = [] if tree.predicate == TRUE else [tree.predicate]
        for pred in pending:
            free = pred.free_vars()
            if free <= left_vars:
                tree.left = Select(tree.left, pred)
            elif free <= right_vars:
                tree.right = Select(tree.right, pred)
            elif free <= left_vars | right_vars:
                eq = _as_equi_key(pred, left_vars, right_vars)
                if eq is not None:
                    left_keys.append(eq[0])
                    right_keys.append(eq[1])
                else:
                    residual.append(pred)
            else:
                remaining.append(pred)
        pending.clear()
        pending.extend(remaining)
        tree.left_keys = tuple(left_keys)
        tree.right_keys = tuple(right_keys)
        tree.predicate = conjoin(residual)
        return tree


def _bound_vars(op: AlgebraOp) -> set[str]:
    """All variables an operator subtree binds."""
    if isinstance(op, Scan):
        return {op.var}
    if isinstance(op, Unnest):
        return _bound_vars(op.child) | {op.var}
    if isinstance(op, Join):
        return _bound_vars(op.left) | _bound_vars(op.right)
    if isinstance(op, Select):
        return _bound_vars(op.child)
    if isinstance(op, Nest):
        return {op.var}
    if isinstance(op, Reduce):
        return {getattr(op, "var", "_reduce")}
    return set()


def _as_equi_key(
    pred: Expr, left_vars: set[str], right_vars: set[str]
) -> tuple[Expr, Expr] | None:
    """Recognize ``left_expr == right_expr`` across the two join sides."""
    if not (isinstance(pred, BinOp) and pred.op == "=="):
        return None
    l_free, r_free = pred.left.free_vars(), pred.right.free_vars()
    if l_free <= left_vars and r_free <= right_vars:
        return (pred.left, pred.right)
    if l_free <= right_vars and r_free <= left_vars:
        return (pred.right, pred.left)
    return None

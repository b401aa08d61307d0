"""The Monoid Rewriter: de-sugaring CleanM ASTs into comprehensions (§4.4).

Each cleaning operator in a query becomes one comprehension *branch*, built
from the templates of §4.4 (FD, DEDUP, CLUSTER BY); the plain SELECT part
becomes a query branch.  Branches are later normalized, translated to
algebra, and — when they share work — coalesced (§5).

Blocking keys are produced through the ``block_keys(kind, term)`` builtin,
bound per-query by the facade: for token filtering it tokenizes, for k-means
it assigns to the sampled centers.  This keeps the comprehension *structure*
independent of the pruning algorithm, which is exactly the role the filter
monoids play in the paper.
"""

from __future__ import annotations

from .._records import Record
from ..errors import PlanningError
from ..monoid.comprehension import Comprehension, Filter, Generator, fresh_var
from ..monoid.expressions import (
    BinOp,
    UnaryOp,
    Call,
    Const,
    Expr,
    Proj,
    RecordCons,
    Var,
)
from ..monoid.monoids import BagMonoid, SetMonoid
from ..algebra.translate import make_group_comprehension
from .ast_nodes import ClusterByOp, DedupOp, FDOp, Query, SelectItem, Star

_AGGREGATES = {"count", "sum", "avg", "min", "max", "distinct_count"}


class Branch(Record, frozen=True):
    """One de-sugared unit of work: a named comprehension."""

    name: str
    kind: str  # "query" | "fd" | "dedup" | "cluster_by"
    comprehension: Comprehension
    params: dict


def rewrite_query(query: Query) -> list[Branch]:
    """De-sugar a parsed query into its comprehension branches."""
    branches: list[Branch] = []
    fd_index = 0
    for op in query.cleaning_ops:
        if isinstance(op, FDOp):
            fd_index += 1
            branches.append(rewrite_fd(query, op, f"fd{fd_index}"))
        elif isinstance(op, DedupOp):
            branches.append(rewrite_dedup(query, op))
        elif isinstance(op, ClusterByOp):
            branches.append(rewrite_cluster_by(query, op))
    if not query.cleaning_ops:
        branches.append(rewrite_select(query))
    return branches


# ---------------------------------------------------------------------- #
# FD
# ---------------------------------------------------------------------- #
def rewrite_fd(query: Query, op: FDOp, name: str) -> Branch:
    """§4.4 template::

        groups := for (c <- cust) yield filter(lhs(c)),
        for (g <- groups, g.count > 1) yield bag g

    Grouping collects the *distinct RHS values* per LHS key (a set monoid);
    a group with more than one RHS value violates the dependency.
    """
    table = query.primary_table
    record_var = table.alias
    key = _tuple_expr(op.lhs)
    rhs = _tuple_expr(op.rhs)
    groups = make_group_comprehension(
        key=key,
        value=rhs,
        qualifiers=_base_qualifiers(query, only_alias=record_var),
        inner=SetMonoid(),
    )
    g = fresh_var("g")
    outer = Comprehension(
        BagMonoid(),
        Var(g),
        (
            Generator(g, groups),
            Filter(
                BinOp(">", Call("count", (Proj(Var(g), "partition"),)), Const(1))
            ),
        ),
    )
    return Branch(name=name, kind="fd", comprehension=outer, params={"lhs": op.lhs, "rhs": op.rhs})


# ---------------------------------------------------------------------- #
# DEDUP
# ---------------------------------------------------------------------- #
def rewrite_dedup(query: Query, op: DedupOp) -> Branch:
    """§4.4 template::

        groups := for (c <- cust) yield filter(c.address, tf),
        for (g <- groups, p1 <- g.partition, p2 <- g.partition,
             similar(metric, p1.atts, p2.atts, θ)) yield bag (p1, p2)
    """
    table = query.primary_table
    record_var = table.alias
    if not op.attributes:
        raise PlanningError("DEDUP needs at least one attribute")
    term = _concat_expr(op.attributes)
    attr_names = tuple(_attr_name(a) for a in op.attributes)

    if op.op in ("exact", "key"):
        # Exact blocking groups on the attribute value itself — this is what
        # lets the §5 rewriter coalesce DEDUP with FD checks on the same
        # attribute (Fig. 5's shared grouping on `address`).
        groups = make_group_comprehension(
            key=term,
            value=Var(record_var),
            qualifiers=_base_qualifiers(query, only_alias=record_var),
            inner=BagMonoid(),
            multi=False,
        )
    else:
        groups = make_group_comprehension(
            key=Call("block_keys", (Const(op.op), term)),
            value=Var(record_var),
            qualifiers=_base_qualifiers(query, only_alias=record_var),
            inner=BagMonoid(),
            multi=True,
        )
    g, p1, p2 = fresh_var("g"), fresh_var("p1"), fresh_var("p2")
    outer = Comprehension(
        BagMonoid(),
        RecordCons((("p1", Var(p1)), ("p2", Var(p2)))),
        (
            Generator(g, groups),
            Generator(p1, Proj(Var(g), "partition")),
            Generator(p2, Proj(Var(g), "partition")),
            Filter(Call("rid_less", (Var(p1), Var(p2)))),
            Filter(
                Call(
                    "similar_records",
                    (
                        Const(op.metric),
                        Var(p1),
                        Var(p2),
                        Const(op.theta),
                        Const(attr_names),
                    ),
                )
            ),
        ),
    )
    return Branch(
        name="dedup",
        kind="dedup",
        comprehension=outer,
        params={"op": op.op, "metric": op.metric, "theta": op.theta, "attributes": attr_names},
    )


# ---------------------------------------------------------------------- #
# CLUSTER BY (term validation)
# ---------------------------------------------------------------------- #
def rewrite_cluster_by(query: Query, op: ClusterByOp) -> Branch:
    """§4.4 template: group data and dictionary with the same algorithm,
    join groups on key, similarity-check within matching groups."""
    if op.dictionary is None:
        raise PlanningError(
            "CLUSTER BY requires a dictionary table in the FROM clause"
        )
    table = query.primary_table
    record_var = table.alias
    dict_alias = op.dictionary
    dict_table = next(t for t in query.tables if t.alias == dict_alias)

    data_groups = make_group_comprehension(
        key=Call("block_keys", (Const(op.op), op.term)),
        value=op.term,
        qualifiers=(Generator(record_var, Var(table.name)),),
        inner=SetMonoid(),
        multi=True,
    )
    dict_groups = make_group_comprehension(
        key=Call("block_keys", (Const(op.op), Var(dict_alias))),
        value=Var(dict_alias),
        qualifiers=(Generator(dict_alias, Var(dict_table.name)),),
        inner=SetMonoid(),
        multi=True,
    )
    d1, d2 = fresh_var("d1"), fresh_var("d2")
    t1, t2 = fresh_var("t1"), fresh_var("t2")
    outer = Comprehension(
        SetMonoid(),
        Call("pair", (Var(t1), Var(t2))),
        (
            Generator(d1, data_groups),
            Generator(d2, dict_groups),
            Filter(BinOp("==", Proj(Var(d1), "key"), Proj(Var(d2), "key"))),
            Generator(t1, Proj(Var(d1), "partition")),
            # Terms appearing in the dictionary verbatim are clean and need
            # no repair suggestion.
            Filter(UnaryOp("not", Call("in_dictionary", (Var(t1),)))),
            Generator(t2, Proj(Var(d2), "partition")),
            Filter(
                Call(
                    "similar",
                    (Const(op.metric), Var(t1), Var(t2), Const(op.theta)),
                )
            ),
        ),
    )
    return Branch(
        name="cluster_by",
        kind="cluster_by",
        comprehension=outer,
        params={
            "op": op.op,
            "metric": op.metric,
            "theta": op.theta,
            "dictionary": dict_table.name,
        },
    )


# ---------------------------------------------------------------------- #
# Plain SELECT
# ---------------------------------------------------------------------- #
def rewrite_select(query: Query) -> Branch:
    """De-sugar the relational part (§4.1: SQL maps to comprehensions)."""
    if query.group_by:
        comp = _rewrite_group_by(query)
    else:
        head = _select_head(query)
        monoid = SetMonoid() if query.distinct else BagMonoid()
        if query.distinct:
            head = Call("freeze", (head,))
        comp = Comprehension(monoid, head, _base_qualifiers(query))
    return Branch(name="query", kind="query", comprehension=comp, params={})


def _rewrite_group_by(query: Query) -> Comprehension:
    key = _tuple_expr(tuple(query.group_by))
    record = _records_expr(query)
    groups = make_group_comprehension(
        key=key,
        value=record,
        qualifiers=_base_qualifiers(query),
        inner=BagMonoid(),
    )
    g = fresh_var("g")
    qualifiers: list = [Generator(g, groups)]
    if query.having is not None:
        qualifiers.append(Filter(_group_expr(query.having, query, g)))
    head_fields = []
    for i, item in enumerate(query.select):
        if isinstance(item, Star):
            raise PlanningError("SELECT * cannot be combined with GROUP BY")
        name = item.alias or _default_name(item.expr, i)
        head_fields.append((name, _group_expr(item.expr, query, g)))
    return Comprehension(
        BagMonoid(), RecordCons(tuple(head_fields)), tuple(qualifiers)
    )


def _group_expr(expr: Expr, query: Query, g: str) -> Expr:
    """Rewrite a select/having expression into group-record space.

    Group-by expressions become projections of the group key; aggregate
    calls become ``agg(kind, partition, attr)`` builtins over the group's
    partition.
    """
    for i, key_expr in enumerate(query.group_by):
        if expr == key_expr:
            if len(query.group_by) == 1:
                return Proj(Var(g), "key")
            return Call("nth", (Proj(Var(g), "key"), Const(i)))
    if isinstance(expr, Call) and expr.name.lower() in _AGGREGATES:
        if len(expr.args) != 1:
            raise PlanningError(f"aggregate {expr.name} takes one argument")
        arg = expr.args[0]
        attr = _attr_name(arg) if not isinstance(arg, Const) else None
        return Call(
            "agg",
            (Const(expr.name.lower()), Proj(Var(g), "partition"), Const(attr)),
        )
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _group_expr(expr.left, query, g), _group_expr(expr.right, query, g))
    if isinstance(expr, Const):
        return expr
    raise PlanningError(
        f"expression {expr!r} must be a GROUP BY key or an aggregate"
    )


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _base_qualifiers(query: Query, only_alias: str | None = None) -> tuple:
    """Generators for the FROM clause (+ WHERE filters)."""
    qualifiers: list = []
    for t in query.tables:
        if only_alias is not None and t.alias != only_alias:
            continue
        qualifiers.append(Generator(t.alias, Var(t.name)))
    if query.where is not None:
        aliases = {t.alias for t in query.tables if only_alias in (None, t.alias)}
        if query.where.free_vars() <= aliases:
            qualifiers.append(Filter(query.where))
    return tuple(qualifiers)


def _select_head(query: Query) -> Expr:
    items = query.select
    if len(items) == 1 and isinstance(items[0], Star):
        aliases = [t.alias for t in query.tables]
        if len(aliases) == 1:
            return Var(aliases[0])
        return RecordCons(tuple((a, Var(a)) for a in aliases))
    fields = []
    for i, item in enumerate(items):
        if isinstance(item, Star):
            for t in query.tables:
                fields.append((t.alias, Var(t.alias)))
            continue
        fields.append((item.alias or _default_name(item.expr, i), item.expr))
    return RecordCons(tuple(fields))


def _records_expr(query: Query) -> Expr:
    aliases = [t.alias for t in query.tables]
    if len(aliases) == 1:
        return Var(aliases[0])
    return RecordCons(tuple((a, Var(a)) for a in aliases))


def _tuple_expr(exprs: tuple[Expr, ...]) -> Expr:
    if len(exprs) == 1:
        return exprs[0]
    return RecordCons(tuple((f"k{i}", e) for i, e in enumerate(exprs)))


def _concat_expr(exprs: tuple[Expr, ...]) -> Expr:
    if len(exprs) == 1:
        return exprs[0]
    return Call("concat_terms", exprs)


def _attr_name(expr: Expr, default: str | None = None) -> str:
    if isinstance(expr, Proj):
        return expr.attr
    if isinstance(expr, Var):
        return expr.name
    if default is not None:
        return default
    raise PlanningError(f"cannot derive an attribute name from {expr!r}")


def _default_name(expr: Expr, index: int) -> str:
    try:
        return _attr_name(expr)
    except PlanningError:
        return f"col{index}"

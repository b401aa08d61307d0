"""The nested relational algebra (§5, Table 1).

Operators resemble relational algebra but handle nested collections and
arbitrary monoid outputs:

=============  =======================================================
Operator       Meaning
=============  =======================================================
``Scan``       produce the records of a named source
``Select``     σ_p — keep records satisfying a predicate
``Join``       ⋈_p — pair records of two inputs satisfying a predicate
``OuterJoin``  left outer variant (unmatched left records pair None)
``Unnest``     μ_path — iterate a nested field, pairing parent & child
``OuterUnnest``as Unnest, emitting (parent, None) for empty paths
``Reduce``     Δ^⊕/e_p — fold the head expression with a monoid
``Nest``       Γ^⊕/e/f_p — group by f, fold e per group with ⊕, keep
               groups satisfying the HAVING-like predicate p
=============  =======================================================

Each operator binds named variables; predicates and expressions are calculus
expressions (``repro.monoid.expressions``) over those variables, which keeps
the whole plan analyzable by the rewriter.
"""

from __future__ import annotations

from typing import Any

from .._records import Record
from ..monoid.expressions import Const, Expr
from ..monoid.monoids import Monoid

TRUE = Const(True)


class AlgebraOp(Record):
    """Base class for algebraic operators."""

    def children(self) -> list["AlgebraOp"]:
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        """A readable plan tree, used by EXPLAIN output and tests."""
        pad = "  " * indent
        line = pad + self._label()
        parts = [line]
        for child in self.children():
            parts.append(child.describe(indent + 1))
        return "\n".join(parts)

    def _label(self) -> str:
        return type(self).__name__


class Scan(AlgebraOp):
    """Read a named table/source, binding each record to ``var``."""

    table: str
    var: str
    fmt: str = "memory"

    def children(self) -> list[AlgebraOp]:
        return []

    def _label(self) -> str:
        return f"Scan[{self.table} as {self.var}, fmt={self.fmt}]"


class Select(AlgebraOp):
    """σ_p(child)."""

    child: AlgebraOp
    predicate: Expr

    def children(self) -> list[AlgebraOp]:
        return [self.child]

    def _label(self) -> str:
        return f"Select[{self.predicate!r}]"


class Join(AlgebraOp):
    """child_left ⋈_p child_right.

    ``left_keys``/``right_keys`` carry equi-join key expressions when the
    predicate (or part of it) is a conjunction of equalities — the physical
    level lowers those to a hash join and the residual predicate to a filter.
    """

    left: AlgebraOp
    right: AlgebraOp
    predicate: Expr = TRUE
    left_keys: tuple[Expr, ...] = ()
    right_keys: tuple[Expr, ...] = ()
    outer: bool = False

    def children(self) -> list[AlgebraOp]:
        return [self.left, self.right]

    def _label(self) -> str:
        kind = "OuterJoin" if self.outer else "Join"
        if self.left_keys:
            return f"{kind}[{self.left_keys!r} = {self.right_keys!r}, residual={self.predicate!r}]"
        return f"{kind}[theta: {self.predicate!r}]"


class Unnest(AlgebraOp):
    """μ_path: iterate ``path`` of each record, binding elements to ``var``."""

    child: AlgebraOp
    path: Expr
    var: str
    predicate: Expr = TRUE
    outer: bool = False

    def children(self) -> list[AlgebraOp]:
        return [self.child]

    def _label(self) -> str:
        kind = "OuterUnnest" if self.outer else "Unnest"
        return f"{kind}[{self.path!r} as {self.var}, p={self.predicate!r}]"


class Reduce(AlgebraOp):
    """Δ^⊕/e_p: filter by p, evaluate e per record, fold with ⊕."""

    child: AlgebraOp
    monoid: Monoid
    head: Expr
    predicate: Expr = TRUE

    def children(self) -> list[AlgebraOp]:
        return [self.child]

    def _label(self) -> str:
        return f"Reduce[{self.monoid.name}/{self.head!r}, p={self.predicate!r}]"


class Nest(AlgebraOp):
    """Γ^⊕/e/f_p: group by f, fold e per group with ⊕, filter groups by p.

    The group predicate sees ``{key, partition}`` records, matching the
    paper's built-in ``partition`` field.  ``aggregates`` allows several
    (name, monoid, head) folds over the same grouping — this is what the
    coalescing rewrite produces for Plan BC of Fig. 1.
    """

    child: AlgebraOp
    key: Expr
    aggregates: tuple[tuple[str, Monoid, Expr], ...]
    group_predicate: Expr = TRUE
    var: str = "g"

    def children(self) -> list[AlgebraOp]:
        return [self.child]

    def _label(self) -> str:
        aggs = ", ".join(f"{n}:{m.name}/{h!r}" for n, m, h in self.aggregates)
        return f"Nest[key={self.key!r}, aggs=({aggs}), having={self.group_predicate!r}]"


class SharedScanDAG(AlgebraOp):
    """A DAG plan: several sub-plans consuming one shared scan (Fig. 1).

    The sub-plan outputs are combined with a full outer join on ``join_key``
    — the paper's semantics for a query with several cleaning operators:
    output the entities with at least one violation.
    """

    scan: Scan
    branches: tuple[AlgebraOp, ...]
    branch_names: tuple[str, ...] = ()

    def children(self) -> list[AlgebraOp]:
        return [self.scan, *self.branches]

    def _label(self) -> str:
        return f"SharedScanDAG[{len(self.branches)} branches over {self.scan.table}]"

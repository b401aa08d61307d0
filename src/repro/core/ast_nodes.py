"""AST for parsed CleanM queries.

Scalar expressions reuse the calculus IR (``repro.monoid.expressions``)
directly — ``c.name`` parses to ``Proj(Var("c"), "name")`` — so the
de-sugarizer can splice them straight into comprehensions.
"""

from __future__ import annotations

from typing import Optional

from .._records import Record, field
from ..monoid.expressions import Expr


class TableRef(Record, frozen=True):
    """A FROM-clause entry: table name plus binding alias."""

    name: str
    alias: str


class SelectItem(Record, frozen=True):
    """One projection: an expression with an optional output alias."""

    expr: Expr
    alias: Optional[str] = None


class Star(Record, frozen=True):
    """``SELECT *`` (optionally qualified ``alias.*``)."""

    alias: Optional[str] = None


class FDOp(Record, frozen=True):
    """``FD(lhs_attrs, rhs_attrs)`` — a functional dependency check."""

    lhs: tuple[Expr, ...]
    rhs: tuple[Expr, ...]


class DedupOp(Record, frozen=True):
    """``DEDUP(<op>[, <metric>, <theta>][, <attributes>])``."""

    op: str = "token_filtering"
    metric: str = "LD"
    theta: float = 0.8
    attributes: tuple[Expr, ...] = ()


class ClusterByOp(Record, frozen=True):
    """``CLUSTER BY(<op>[, <metric>, <theta>], <term>)`` — term validation.

    ``dictionary`` is the alias of the FROM-clause table acting as the
    dictionary (resolved by the parser from the term expression: the
    dictionary is the other table).
    """

    op: str
    metric: str
    theta: float
    term: Expr
    dictionary: Optional[str] = None


CleaningOp = FDOp | DedupOp | ClusterByOp


class Query(Record):
    """A parsed CleanM query (Listing 1)."""

    select: list[SelectItem | Star]
    tables: list[TableRef]
    distinct: bool = False
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    cleaning_ops: list[CleaningOp] = field(default_factory=list)

    @property
    def primary_table(self) -> TableRef:
        """The table being cleaned — the first FROM entry by convention."""
        return self.tables[0]

    def alias_map(self) -> dict[str, str]:
        return {t.alias: t.name for t in self.tables}

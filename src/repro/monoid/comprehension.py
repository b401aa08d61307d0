"""Monoid comprehensions: the calculus CleanM queries are translated into.

A comprehension ``⊕{e | q1, ..., qn}`` has a merge monoid ``⊕``, a head
expression ``e``, and a qualifier list where each qualifier is a generator
(``var <- collection``), a filter predicate, or a let-binding
(``var := expr``).  This module defines the IR and a reference evaluator so
every translation stage can be differentially tested against direct
comprehension semantics.
"""

from __future__ import annotations

from itertools import count as _counter
from typing import Any, Callable, Iterable

from .._records import Record
from .expressions import Expr, evaluate
from .monoids import Monoid


class Qualifier(Record, frozen=True):
    """Base class for comprehension qualifiers."""


class Generator(Qualifier, frozen=True):
    """``var <- source``: iterate over a collection, binding ``var``."""

    var: str
    source: Expr

    def __repr__(self) -> str:
        return f"{self.var} <- {self.source!r}"


class Filter(Qualifier, frozen=True):
    """A boolean predicate over the variables bound so far."""

    predicate: Expr

    def __repr__(self) -> str:
        return f"filter {self.predicate!r}"


class Bind(Qualifier, frozen=True):
    """``var := expr``: a let-binding (inlined away by normalization)."""

    var: str
    expr: Expr

    def __repr__(self) -> str:
        return f"{self.var} := {self.expr!r}"


class Comprehension(Expr, frozen=True):
    """``monoid{ head | qualifiers }``.

    Comprehensions are themselves expressions, so they nest — the normalizer
    then flattens the nestings it can (§4.2).
    """

    monoid: Monoid
    head: Expr
    qualifiers: tuple[Qualifier, ...]

    def free_vars(self) -> set[str]:
        bound: set[str] = set()
        out: set[str] = set()
        for q in self.qualifiers:
            if isinstance(q, Generator):
                out |= q.source.free_vars() - bound
                bound.add(q.var)
            elif isinstance(q, Filter):
                out |= q.predicate.free_vars() - bound
            elif isinstance(q, Bind):
                out |= q.expr.free_vars() - bound
                bound.add(q.var)
        out |= self.head.free_vars() - bound
        return out

    def substitute(self, mapping: dict[str, Expr]) -> "Comprehension":
        live = dict(mapping)
        new_qs: list[Qualifier] = []
        for q in self.qualifiers:
            if isinstance(q, Generator):
                new_qs.append(Generator(q.var, q.source.substitute(live)))
                live.pop(q.var, None)
            elif isinstance(q, Filter):
                new_qs.append(Filter(q.predicate.substitute(live)))
            elif isinstance(q, Bind):
                new_qs.append(Bind(q.var, q.expr.substitute(live)))
                live.pop(q.var, None)
        return Comprehension(self.monoid, self.head.substitute(live), tuple(new_qs))

    def children(self) -> list[Expr]:
        out: list[Expr] = []
        for q in self.qualifiers:
            if isinstance(q, Generator):
                out.append(q.source)
            elif isinstance(q, Filter):
                out.append(q.predicate)
            elif isinstance(q, Bind):
                out.append(q.expr)
        out.append(self.head)
        return out

    def __repr__(self) -> str:
        qs = ", ".join(repr(q) for q in self.qualifiers)
        return f"{self.monoid.name}{{ {self.head!r} | {qs} }}"


_fresh_counter = _counter()


def fresh_var(prefix: str = "v") -> str:
    """A globally fresh variable name; keeps substitution capture-free."""
    return f"${prefix}{next(_fresh_counter)}"


def evaluate_comprehension(
    comp: Comprehension,
    env: dict[str, Any] | None = None,
    funcs: dict[str, Callable] | None = None,
) -> Any:
    """Reference (nested-loop) semantics of a comprehension.

    Used for tests and for small auxiliary computations; production plans go
    through the algebra and physical levels instead.
    """
    env = dict(env or {})

    def walk(index: int, scope: dict[str, Any], acc: Any) -> Any:
        if index == len(comp.qualifiers):
            head_value = evaluate(comp.head, scope, funcs)
            return comp.monoid.merge(acc, comp.monoid.unit(head_value))
        q = comp.qualifiers[index]
        if isinstance(q, Generator):
            source = evaluate(q.source, scope, funcs)
            for item in _iterate(source):
                child = dict(scope)
                child[q.var] = item
                acc = walk(index + 1, child, acc)
            return acc
        if isinstance(q, Filter):
            if evaluate(q.predicate, scope, funcs):
                return walk(index + 1, scope, acc)
            return acc
        if isinstance(q, Bind):
            child = dict(scope)
            child[q.var] = evaluate(q.expr, scope, funcs)
            return walk(index + 1, child, acc)
        raise TypeError(f"unknown qualifier {q!r}")

    return walk(0, env, comp.monoid.zero())


def _iterate(source: Any) -> Iterable[Any]:
    """Iterate any collection a generator may range over.

    Dictionaries (group-monoid values) iterate as ``{key, partition}``
    records, matching the paper's built-in ``partition`` field for groups.
    """
    if isinstance(source, dict):
        return (
            {"key": key, "partition": list(values) if isinstance(values, (list, set, frozenset)) else values}
            for key, values in source.items()
        )
    return source

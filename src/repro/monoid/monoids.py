"""Monoid definitions (§4.1/§4.3 of the paper).

A *primitive monoid* models an aggregate: an associative merge ``⊕`` with an
identity element.  A *collection monoid* additionally has a unit function
turning one element into a singleton collection.  CleanM's contribution is
mapping data cleaning building blocks — grouping, token filtering, k-means
center assignment — onto this structure, which makes them first-class,
composable, and parallelizable (merge order does not matter).  Token
filtering and k-means assignment both run as :class:`MultiGroupMonoid`
Nests whose keys come from the ``block_keys`` builtin.

Every monoid here implements the same protocol (``zero`` / ``unit`` /
``merge``), and the property-based tests in ``tests/monoid`` verify the
monoid laws (identity and associativity) on random inputs.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Hashable, Iterable, Sequence

from ..errors import MonoidError


class Monoid:
    """Protocol for all monoids.

    ``commutative`` and ``idempotent`` flags let the optimizer know which
    rewrites are safe (e.g. a set monoid tolerates duplicate delivery, a list
    monoid does not tolerate reordering).  ``collection`` marks the
    collection monoids: a Reduce into one keeps its heads as a dataset
    instead of folding them to one value.
    """

    name: str = "monoid"
    commutative: bool = True
    idempotent: bool = False
    collection: bool = False

    def zero(self) -> Any:
        raise NotImplementedError

    def unit(self, value: Any) -> Any:
        """Lift one element into the monoid's carrier type.

        Primitive monoids use the element itself as the singleton value.
        """
        return value

    def merge(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def fold(self, values: Iterable[Any]) -> Any:
        """Merge the units of ``values``, left to right."""
        acc = self.zero()
        for value in values:
            acc = self.merge(acc, self.unit(value))
        return acc

    def __repr__(self) -> str:
        return f"<monoid {self.name}>"


# ---------------------------------------------------------------------- #
# Primitive monoids
# ---------------------------------------------------------------------- #
class SumMonoid(Monoid):
    name = "sum"

    def zero(self) -> float:
        return 0

    def merge(self, left: Any, right: Any) -> Any:
        return left + right


class CountMonoid(SumMonoid):
    """Counts elements: the unit of any value is 1."""

    name = "count"

    def unit(self, value: Any) -> int:
        return 1


class MaxMonoid(Monoid):
    name = "max"
    idempotent = True

    def zero(self) -> float:
        return -math.inf

    def merge(self, left: Any, right: Any) -> Any:
        return left if left >= right else right


class MinMonoid(Monoid):
    name = "min"
    idempotent = True

    def zero(self) -> float:
        return math.inf

    def merge(self, left: Any, right: Any) -> Any:
        return left if left <= right else right


class AllMonoid(Monoid):
    """Logical conjunction; zero is True."""

    name = "all"
    idempotent = True

    def zero(self) -> bool:
        return True

    def merge(self, left: bool, right: bool) -> bool:
        return bool(left) and bool(right)


class AnyMonoid(Monoid):
    """Logical disjunction; zero is False.  Backs EXISTS unnesting."""

    name = "any"
    idempotent = True

    def zero(self) -> bool:
        return False

    def merge(self, left: bool, right: bool) -> bool:
        return bool(left) or bool(right)


class AvgMonoid(Monoid):
    """Average via the (sum, count) product monoid.

    ``avg`` itself is not associative, but the pair of running sum and count
    is.  Used by the fill-missing-values transformation (Table 4).
    """

    name = "avg"

    def zero(self) -> tuple[float, int]:
        return (0.0, 0)

    def unit(self, value: float) -> tuple[float, int]:
        return (float(value), 1)

    def merge(self, left: tuple[float, int], right: tuple[float, int]) -> tuple[float, int]:
        return (left[0] + right[0], left[1] + right[1])


# ---------------------------------------------------------------------- #
# Collection monoids
# ---------------------------------------------------------------------- #
class ListMonoid(Monoid):
    """Ordered list with append-concatenation; not commutative."""

    name = "list"
    commutative = False
    collection = True

    def zero(self) -> list:
        return []

    def unit(self, value: Any) -> list:
        return [value]

    def merge(self, left: list, right: list) -> list:
        return left + right


class BagMonoid(ListMonoid):
    """Multiset; represented as a list whose order is insignificant."""

    name = "bag"
    commutative = True


class SetMonoid(Monoid):
    name = "set"
    idempotent = True
    collection = True

    def zero(self) -> frozenset:
        return frozenset()

    def unit(self, value: Hashable) -> frozenset:
        return frozenset([value])

    def merge(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right


class GroupMonoid(Monoid):
    """Pointwise-merged dictionary of inner-monoid values.

    ``unit`` is parameterized by a key function and a value function: one
    element becomes ``{key(x): inner.unit(value(x))}`` and merging unions the
    dictionaries, merging inner values on key collision.  SQL GROUP BY, token
    filtering, and k-means assignment are all instances of this shape.
    """

    name = "group"
    collection = True

    def __init__(self, inner: Monoid | None = None,
                 key_func: Callable[[Any], Hashable] | None = None,
                 value_func: Callable[[Any], Any] | None = None):
        self.inner = inner or BagMonoid()
        self.key_func = key_func or (lambda x: x)
        self.value_func = value_func or (lambda x: x)

    def zero(self) -> dict:
        return {}

    def unit(self, value: Any) -> dict:
        return {self.key_func(value): self.inner.unit(self.value_func(value))}

    def merge(self, left: dict, right: dict) -> dict:
        if len(left) < len(right):
            left, right = right, left
        out = dict(left)
        for key, inner_value in right.items():
            if key in out:
                out[key] = self.inner.merge(out[key], inner_value)
            else:
                out[key] = inner_value
        return out


class MultiGroupMonoid(Monoid):
    """Like :class:`GroupMonoid` but one element may map to *many* keys.

    The key function returns an iterable of keys; the element is added to the
    group of every key.  This is the shape shared by token filtering (one
    word → all its q-gram groups) and the overlapping-assignment k-means
    variant (one word → every near-minimal center).
    """

    name = "multigroup"
    collection = True

    def __init__(self, keys_func: Callable[[Any], Iterable[Hashable]],
                 inner: Monoid | None = None,
                 value_func: Callable[[Any], Any] | None = None):
        self.inner = inner or SetMonoid()
        self.keys_func = keys_func
        self.value_func = value_func or (lambda x: x)

    zero = GroupMonoid.zero
    merge = GroupMonoid.merge  # union, merging inner values on collision

    def unit(self, value: Any) -> dict:
        payload = self.inner.unit(self.value_func(value))
        return {key: payload for key in self.keys_func(value)}


# ---------------------------------------------------------------------- #
# The Nest fold
# ---------------------------------------------------------------------- #
def nest_accumulator(
    aggregates: Sequence[tuple[str, Monoid, Callable[[Any], Any]]],
) -> tuple[Callable, Callable]:
    """``(add, combine)`` for a Nest's ``(name, monoid, head)`` aggregates,
    ``head`` a function of one input.  ``add(state, x)`` folds ``x`` into a
    group state ``{name: value}``, or starts one when ``state`` is None;
    ``combine(state, other)`` folds another state in.  Both return the
    state they updated; ``combine`` reads only names and monoids.

    States are ``repr``-identical to ``{name: merge(acc, unit(v))}`` chains
    built in the same order (every unit before any merge), but a bag or
    list head is appended in place to its state's list, and a state extends
    another's, instead of copying the list per input.  Every other monoid
    keeps its merge: a set folded in place iterates in another order.  Only
    states are mutated; a state must not be shared before its fold is done.
    """
    steps = tuple(
        (name, head, None if type(monoid) in (BagMonoid, ListMonoid) else monoid.unit, monoid.merge)
        for name, monoid, head in aggregates
    )
    if len(steps) == 1 and steps[0][2] is None:  # a GROUP BY's one bag
        name, head = steps[0][:2]

        def add(state: dict | None, x: Any) -> dict:
            if state is None:
                return {name: [head(x)]}
            state[name].append(head(x))
            return state
    else:
        def add(state: dict | None, x: Any) -> dict:
            units = [head(x) if unit is None else unit(head(x)) for _, head, unit, _ in steps]
            if state is None:
                return {
                    name: [value] if unit is None else value
                    for (name, _, unit, _), value in zip(steps, units)
                }
            for (name, _, unit, merge), value in zip(steps, units):
                if unit is None:
                    state[name].append(value)
                else:
                    state[name] = merge(state[name], value)
            return state

    def combine(state: dict, other: dict) -> dict:
        for name, _, unit, merge in steps:
            if unit is None:
                state[name].extend(other[name])
            else:
                state[name] = merge(state[name], other[name])
        return state

    return add, combine


# ---------------------------------------------------------------------- #
# Registry & law checking
# ---------------------------------------------------------------------- #
_REGISTRY: dict[str, Callable[[], Monoid]] = {
    "sum": SumMonoid,
    "count": CountMonoid,
    "max": MaxMonoid,
    "min": MinMonoid,
    "all": AllMonoid,
    "any": AnyMonoid,
    "avg": AvgMonoid,
    "list": ListMonoid,
    "bag": BagMonoid,
    "set": SetMonoid,
}


def get_monoid(name: str) -> Monoid:
    """Instantiate a registered monoid by name: the one way to build the
    primitive monoids of §4 from a string (the monoid tests do)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise MonoidError(f"unknown monoid {name!r}; known: {known}") from None


def register_monoid(name: str, factory: Callable[[], Monoid]) -> None:
    """Extensibility hook: add a user-defined monoid (§4.3)."""
    _REGISTRY[name] = factory


def check_monoid_laws(
    monoid: Monoid, samples: Sequence[Any], normalize: Callable[[Any], Any] | None = None
) -> None:
    """Assert identity and associativity over concrete samples.

    ``normalize`` canonicalizes carrier values before comparison (e.g. sort a
    bag) so that law checks are insensitive to representation details.
    Raises :class:`MonoidError` on the first violated law.
    """
    canon = normalize or (lambda x: x)
    units = [monoid.unit(s) for s in samples]
    for u in units:
        left_identity = monoid.merge(monoid.zero(), u)
        right_identity = monoid.merge(u, monoid.zero())
        if canon(left_identity) != canon(u) or canon(right_identity) != canon(u):
            raise MonoidError(f"{monoid.name}: identity law violated for {u!r}")
    for a in units:
        for b in units:
            for c in units:
                left = monoid.merge(monoid.merge(a, b), c)
                right = monoid.merge(a, monoid.merge(b, c))
                if canon(left) != canon(right):
                    raise MonoidError(
                        f"{monoid.name}: associativity violated for "
                        f"{a!r}, {b!r}, {c!r}"
                    )

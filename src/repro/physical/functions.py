"""The built-in function registry available to CleanM expressions.

These are the functions a CleanM query may call (``prefix(c.phone)``,
``similar(...)``, ``tokenize(...)``); the physical executor passes this
registry to the expression evaluator.  ``register_function`` is the
extensibility hook for user-defined scalar functions — because they are
evaluated through the same expression interpreter, they stay visible to the
optimizer instead of becoming black-box UDFs.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..cleaning.similarity import get_metric, record_matcher, similar
from ..cleaning.tokenize import qgrams
from ..errors import PlanningError


def prefix(value: Any, length: int = 3) -> str:
    """The paper's ``prefix(phone)`` helper: the first digits of a phone."""
    return str(value)[:length]


_SCALARS = frozenset({int, str, float, bool, type(None)})


def freeze(value: Any) -> Any:
    """Make a value hashable: the one way grouping/join keys and
    ``distinct_count`` operands are frozen, on every backend.  An exact
    scalar (most keys) is returned before any ``isinstance`` test."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, dict):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, set, frozenset)):
        return tuple(freeze(v) for v in value)
    return value


def _count(collection: Any) -> int:
    return len(collection)


def _distinct_count(collection: Any) -> int:
    return len({freeze(v) for v in collection})


DEFAULT_FUNCTIONS: dict[str, Callable] = {
    "prefix": prefix,
    "similar": lambda metric, a, b, theta: similar(metric, str(a), str(b), theta),
    "similarity": lambda metric, a, b: get_metric(metric)(str(a), str(b)),
    "tokenize": lambda s, q=3: qgrams(str(s), int(q)),
    "count": _count,
    "len": _count,
    "distinct_count": _distinct_count,
    "lower": lambda s: str(s).lower(),
    "upper": lambda s: str(s).upper(),
    "abs": abs,
    "min": min,
    "max": max,
    "sum": sum,
    "concat": lambda *parts: "".join(str(p) for p in parts),
    "coalesce": lambda *vals: next((v for v in vals if v is not None), None),
}


#: The registry's shipped names, frozen at import time.  The static
#: analyzer exempts these from the CM501 shippability check — the engine
#: knows which builtins cross the process boundary and routes around the
#: rest — while anything added later via :func:`register_function` is
#: user-supplied and must ship.
BUILTIN_FUNCTION_NAMES: frozenset[str] = frozenset(DEFAULT_FUNCTIONS)


def register_function(name: str, func: Callable) -> None:
    """Add a scalar function usable from CleanM queries."""
    DEFAULT_FUNCTIONS[name] = func


# -- Per-query builtins: what rewritten comprehensions call ----------------- #
def _rid(record: Any) -> Any:
    if isinstance(record, dict) and "_rid" in record:
        return record["_rid"]
    return id(record)


def _nth_key(key: Any, index: int) -> Any:
    """Project one component of a frozen composite grouping key."""
    if isinstance(key, tuple):
        component = key[index]
        # Frozen RecordCons keys are (name, value) pairs.
        if isinstance(component, tuple) and len(component) == 2 and isinstance(component[0], str):
            return component[1]
        return component
    return key


def _aggregate(kind: str, partition: Any, attr: str | None) -> Any:
    if kind == "count" and isinstance(partition, (list, tuple)):
        return len(partition)  # a count reads no attribute
    values = [
        (record.get(attr) if isinstance(record, dict) and attr else record)
        for record in partition
    ]
    if kind == "count":
        return len(values)
    if kind == "distinct_count":
        return _distinct_count(values)
    numbers = [v for v in values if isinstance(v, (int, float))]
    if kind == "sum":
        return sum(numbers)
    if kind == "avg":
        return sum(numbers) / len(numbers) if numbers else None
    if kind == "min":
        return min(numbers) if numbers else None
    if kind == "max":
        return max(numbers) if numbers else None
    raise PlanningError(f"unknown aggregate {kind!r}")


#: Every per-query builtin — the one table: :func:`query_functions` binds it
#: for the executor and the static analyzer exempts exactly its names
#: (``core.semantics.ENGINE_BUILTINS``).  ``None`` marks the three that
#: close over one query's blocking parameters and dictionary.  The lambdas
#: and closures stay unshippable on purpose — a plan calling one is left to
#: the row path by ``ParallelExecutor.supports``.
QUERY_BUILTINS: dict[str, Callable | None] = {
    "block_keys": None,
    "in_dictionary": None,
    "similar_records": None,
    "rid_less": lambda a, b: (  # plain dicts with rids compare them without a call
        a["_rid"] < b["_rid"] if type(a) is type(b) is dict and "_rid" in a and "_rid" in b
        else _rid(a) < _rid(b)
    ),
    "pair": lambda a, b: (a, b),
    "freeze": freeze,
    "nth": _nth_key,
    "agg": _aggregate,
    "concat_terms": lambda *parts: " ".join(str(p) for p in parts),
}


def query_functions(
    branches: Sequence[Any], primary: str, tables: Mapping[str, Sequence[Any]],
    *, q: int, k: int, delta: float, seed: int, sim_filters: bool,
) -> dict[str, Callable]:
    """:data:`QUERY_BUILTINS` bound for one compiled query: ``branches`` are
    its de-sugared branches, ``primary`` its first FROM table.

    The dictionary a CLUSTER BY names is broadcast for the exact-match
    short-circuit.  ``block_keys(kind, term)`` is the blocker table's
    (``cleaning/blocking.py``) ``kind``, bound on its first call to the
    parameters of the query's first DEDUP / CLUSTER BY of that kind (its
    metric; a CLUSTER BY's dictionary, or a DEDUP's compared terms of the
    primary table, for k-means centers), so a query that never asks pays
    nothing.
    """
    clusters = [b for b in branches if b.kind == "cluster_by"]
    dictionary = tables.get(clusters[0].params["dictionary"], []) if clusters else []
    dictionary_terms = {str(r) for r in dictionary}
    bound: dict[str, Callable[[str], list]] = {}

    def bind(kind: str) -> Callable[[str], list]:
        from ..cleaning import blocking

        if kind not in blocking.BLOCKERS:
            raise PlanningError(f"unknown blocking op {kind!r}")
        op = next((b.params for b in branches if b.params.get("op") == kind), {})
        if "dictionary" in op:  # a CLUSTER BY samples its dictionary
            sample: dict[str, Any] = {"dictionary": tables.get(op["dictionary"], [])}
        else:  # a DEDUP its compared terms, any other caller each row's text
            table = tables.get(primary, [])
            sample = {"rows": lambda: table}
            if "attributes" in op:
                sample["term"] = blocking.concat_terms(op["attributes"])
        return blocking.blocker(
            kind, metric=op.get("metric", "LD"), q=q, k=k, delta=delta, seed=seed, **sample
        )

    def block_keys(kind: str, term: Any) -> list[Any]:
        keys = bound.get(kind)
        if keys is None:
            keys = bound[kind] = bind(kind)
        return keys(str(term))

    # One matcher per (metric, theta, attrs) for the query's lifetime:
    # its join is built and each row prepared once, not once per pair.
    matchers: dict[tuple, Any] = {}

    def similar_records(metric: str, a: dict, b: dict, theta: float, attrs: Any) -> bool:
        # The rewriter passes a tuple constant; only other callers pay for one.
        key = (metric, theta, attrs if type(attrs) is tuple else tuple(attrs))
        match = matchers.get(key)
        if match is None:
            match = matchers[key] = record_matcher(key[2], metric, theta, banded=sim_filters)
        return match(a, b)

    return {
        **QUERY_BUILTINS,
        "block_keys": block_keys,
        "in_dictionary": lambda term: str(term) in dictionary_terms,
        "similar_records": similar_records,
    }

"""One freeze, one builtin table.

``freeze`` is the only freeze-to-hashable in ``src/`` (it used to exist four
times, one copy without the ``frozenset`` case), and the per-query builtins
are one table: what the executor binds for a query and what the static
analyzer exempts from CM104 / CM501 are its key set, not two lists.
"""

import pytest

from repro import CleanDB
from repro.core.rewriter import rewrite_query
from repro.core.parser import parse
from repro.core.semantics import ENGINE_BUILTINS
from repro.core.shippable import is_module_level_callable, is_picklable
from repro.physical.functions import (
    DEFAULT_FUNCTIONS,
    QUERY_BUILTINS,
    freeze,
    query_functions,
)

PLAIN = "SELECT * FROM customer c FD(c.address, prefix(c.phone))"
CLUSTERED = (
    "SELECT c.name FROM customer c, dictionary d "
    "DEDUP(exact, LD, 0.7, c.address) CLUSTER BY(kmeans, LD, 0.7, c.name)"
)
TABLES = {
    "customer": [
        {"name": "stela gian", "address": "rue a", "phone": "123"},
        {"name": "stella gian", "address": "rue a", "phone": "124"},
    ],
    "dictionary": ["stella gian", "john smith"],
}
PARAMS = dict(q=2, k=2, delta=0.05, seed=13, sim_filters=True)


def bound(sql):
    query = parse(sql)
    return query_functions(
        rewrite_query(query), query.primary_table.name, TABLES, **PARAMS
    )


@pytest.mark.parametrize("sql", [PLAIN, CLUSTERED], ids=["plain", "cluster_by"])
def test_the_analyzer_exempts_exactly_what_the_executor_binds(sql):
    functions = bound(sql)
    assert set(functions) == set(QUERY_BUILTINS) == ENGINE_BUILTINS
    assert all(callable(f) for f in functions.values())


def test_builtins_are_bound_to_the_query():
    functions = bound(CLUSTERED)
    assert functions["in_dictionary"]("john smith")
    assert not functions["in_dictionary"]("stela gian")
    assert functions["block_keys"]("kmeans", "stella gian")  # centers from the dictionary
    assert functions["block_keys"]("token_filtering", "ab") == ["ab"]
    assert not bound(PLAIN)["in_dictionary"]("john smith")


def test_shippability_of_the_builtins_is_unchanged():
    """``freeze`` / ``nth`` / ``agg`` ship by reference; the rest are lambdas
    and closures the parallel backend leaves to the row path."""
    ships = {
        name for name, f in bound(CLUSTERED).items()
        if is_module_level_callable(f) or is_picklable(f)
    }
    assert ships == {"freeze", "nth", "agg"}


def test_freeze_covers_every_container():
    assert freeze({"b": [1, {2}], "a": frozenset({3})}) == (("a", (3,)), ("b", (1, (2,))))
    assert freeze("text") == "text"
    hash(freeze([{"k": [1, 2]}, {3, 4}]))


def test_distinct_count_freezes_frozensets_like_every_other_path():
    """``functions._hashable`` lacked the frozenset case: a frozenset and the
    equal list counted as two values here and as one in ``agg``."""
    values = [frozenset({1}), [1], (1,)]
    assert DEFAULT_FUNCTIONS["distinct_count"](values) == 1
    assert QUERY_BUILTINS["agg"]("distinct_count", values, None) == 1


def test_engine_builtins_resolve_in_a_session():
    with CleanDB(num_nodes=2, q=2) as db:
        for name, rows in TABLES.items():
            db.register_table(name, rows)
        assert db.check(CLUSTERED) == []
        assert db.execute(CLUSTERED).branch("cluster_by")

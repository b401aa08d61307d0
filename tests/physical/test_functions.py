"""One freeze, one builtin table.

``freeze`` is the only freeze-to-hashable in ``src/`` (it used to exist four
times, one copy without the ``frozenset`` case), and the per-query builtins
are one table: what the executor binds for a query and what the static
analyzer exempts from CM104 / CM501 are its key set, not two lists.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import CleanDB
from repro.algebra import Scan, Select
from repro.engine import Cluster
from repro.monoid import Call, Const, Proj, Var
from repro.physical import Executor, ParallelExecutor, PhysicalConfig
from repro.core.rewriter import rewrite_query
from repro.core.parser import parse
from repro.core.semantics import ENGINE_BUILTINS
from repro.core.shippable import is_module_level_callable, is_picklable
from repro.errors import PlanningError
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
KMEANS_DEDUP = "SELECT * FROM customer c DEDUP(kmeans, LD, 0.7, c.name)"
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


SIMILARITY_CALLS = [
    ("similar", ("LD", "stella gian", "stela gian", 0.8)),
    ("similar", ("LD", "abc", "xyz", 0.5)),
    ("similar", ("jaccard", 1234, 1243, 0.3)),
    ("similarity", ("LD", "stella gian", "stela gian")),
    ("similarity", ("jaro", "abcd", "abce")),
    ("similarity", ("LD", 12, 21)),
    ("tokenize", ("abcd",)),
    ("tokenize", ("hello", 2)),
    ("tokenize", (42, "2")),
]


def test_the_similarity_builtins_load_their_modules_at_the_first_call():
    """In a fresh interpreter the registry loads neither ``cleaning.similarity``
    nor ``cleaning.tokenize``; the first call does, and every answer is the
    one the registry gave when it imported them eagerly."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "from repro.physical.functions import DEFAULT_FUNCTIONS\n"
         "def loaded():\n"
         "    return sorted(m for m in ('repro.cleaning.similarity', 'repro.cleaning.tokenize')\n"
         "                  if m in sys.modules)\n"
         "before = loaded()\n"
         f"answers = [DEFAULT_FUNCTIONS[name](*args) for name, args in {SIMILARITY_CALLS!r}]\n"
         "print(json.dumps({'before': before, 'after': loaded(), 'answers': answers}))"],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["before"] == []
    assert out["after"] == ["repro.cleaning.similarity", "repro.cleaning.tokenize"]
    assert out["answers"] == [
        True, False, False,
        0.9090909090909091, 0.8333333333333334, 0.0,
        ["abc", "bcd"], ["he", "el", "ll", "lo"], ["42"],
    ]


@pytest.mark.parametrize("name, args", [
    ("similar", (Const("LD"), Proj(Var("r"), "name"), Const("stela gian"), Const(0.8))),
    ("similarity", (Const("LD"), Proj(Var("r"), "name"), Const("stela gian"))),
    ("tokenize", (Proj(Var("r"), "name"),)),
])
def test_a_plan_calling_a_similarity_builtin_stays_on_the_row_path(name, args):
    """The three stay lambdas: ``ParallelExecutor.supports`` routes a plan
    calling one exactly as when they imported their modules eagerly, while
    the same plan calling the module-level ``prefix`` is claimed."""
    cluster = Cluster(num_nodes=4, workers=2)
    try:
        ex = Executor(cluster, {"t": TABLES["customer"]}, config=PhysicalConfig(execution="parallel"))
        par = ParallelExecutor(ex)
        assert not par.supports(Select(Scan("t", "r"), Call(name, args)))
        assert par.supports(Select(Scan("t", "r"), Call("prefix", (Proj(Var("r"), "name"),))))
    finally:
        cluster.shutdown()


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


class RidDict(dict):
    """A dict subclass: ``rid_less`` must not read its ``_rid`` directly."""

    def __getitem__(self, key):
        return -super().__getitem__(key) if key == "_rid" else super().__getitem__(key)


def test_rid_less_reads_rids_directly_only_off_plain_dicts():
    rid_less = QUERY_BUILTINS["rid_less"]
    a, b = {"_rid": 1, "x": 0}, {"_rid": 2, "x": 0}
    assert rid_less(a, b) and not rid_less(b, a) and not rid_less(a, a)
    # Without a rid on either side, a record is ordered by its identity.
    bare = {"x": 0}
    assert rid_less(a, bare) == (1 < id(bare))
    assert rid_less(bare, b) == (id(bare) < 2)
    assert rid_less(bare, bare) is False
    # A dict subclass goes through _rid(), which subscripts it.
    sub_a, sub_b = RidDict(_rid=1), RidDict(_rid=2)
    assert rid_less(sub_b, sub_a)  # -2 < -1
    assert rid_less(a, RidDict(_rid=5)) is False  # 1 < -5
    assert rid_less("p", "q") == (id("p") < id("q"))


def test_agg_count_is_the_length_of_any_collection():
    agg = QUERY_BUILTINS["agg"]
    rows = [{"v": 1}, {"v": None}, {"w": 2}, "not a record"]
    assert agg("count", rows, "v") == 4
    assert agg("count", tuple(rows), None) == 4
    assert agg("count", (r for r in rows), "v") == 4  # no len(): counted by iterating
    assert agg("count", [], "v") == 0
    assert agg("sum", rows, "v") == 1 and agg("distinct_count", rows, "v") == 3


@pytest.mark.parametrize("kind, want", [
    ("sum", 7), ("avg", 1.75), ("min", 1), ("max", 3), ("count", 5), ("distinct_count", 4),
])
def test_agg_folds_only_the_numbers_of_the_field(kind, want):
    agg = QUERY_BUILTINS["agg"]
    rows = [{"v": 1}, {"v": 2}, {"v": 3}, {"v": "x"}, {"v": 1}]
    assert agg(kind, rows, "v") == want


@pytest.mark.parametrize("kind", ["avg", "min", "max"])
def test_agg_of_no_numbers_is_null(kind):
    agg = QUERY_BUILTINS["agg"]
    assert agg(kind, [], "v") is None
    assert agg(kind, [{"v": "x"}, {"w": 1}], "v") is None


def test_agg_rejects_an_unknown_kind():
    with pytest.raises(PlanningError, match="median"):
        QUERY_BUILTINS["agg"]("median", [{"v": 1}], "v")


def test_similar_records_shares_one_matcher_per_setting(monkeypatch):
    import repro.cleaning.similarity as similarity

    built = []

    def matcher(attrs, metric, theta, banded):
        built.append(attrs)
        return lambda a, b: a["name"] == b["name"]

    monkeypatch.setattr(similarity, "record_matcher", matcher)
    similar = bound(PLAIN)["similar_records"]
    a, b = {"name": "x"}, {"name": "x"}
    assert similar("LD", a, b, 0.8, ("name",)) and similar("LD", a, b, 0.8, ("name",))
    assert similar("LD", a, b, 0.8, ["name"])  # a list spelling of the same setting
    assert built == [("name",)]
    similar("LD", a, b, 0.9, ("name",))
    assert built == [("name",), ("name",)]


def test_engine_builtins_resolve_in_a_session():
    with CleanDB(num_nodes=2, q=2) as db:
        for name, rows in TABLES.items():
            db.register_table(name, rows)
        assert db.check(CLUSTERED) == []
        assert db.execute(CLUSTERED).branch("cluster_by")


@pytest.mark.parametrize("sql, terms", [
    (KMEANS_DEDUP, ["stela gian", "stella gian"]),  # the rows' compared terms
    (CLUSTERED, ["stella gian", "john smith"]),  # the dictionary
], ids=["dedup", "cluster_by"])
def test_kmeans_centers_are_sampled_on_the_first_kmeans_key_only(sql, terms, monkeypatch):
    import repro.cleaning.kmeans as kmeans

    samples = []
    real = kmeans.reservoir_sample
    monkeypatch.setattr(kmeans, "reservoir_sample", lambda *a, **kw: samples.append(a) or real(*a, **kw))
    functions = bound(sql)
    functions["block_keys"]("token_filtering", "ab")
    assert samples == []  # a query that never blocks by k-means pays nothing
    centers = real(terms, PARAMS["k"], seed=PARAMS["seed"])
    for term in ["stella gian", "john smith", "jon smith"]:
        want = kmeans.assign_to_centers(term, centers, "LD", PARAMS["delta"])
        assert functions["block_keys"]("kmeans", term) == want
    assert samples == [(terms, PARAMS["k"])]  # once per query, same terms

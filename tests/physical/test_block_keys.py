"""The paper's §4.3 pruning monoids as the engine runs them.

Token filtering and k-means blocking have no monoid class of their own: a
query runs each as a ``MultiGroupMonoid`` Nest whose keys come from the
per-query ``block_keys`` builtin (``physical/functions.py``), which binds
the one blocker table (``cleaning/blocking.py``).  These tests pin that
builtin to the paper's definitions, check that the Nest monoid it keys
keeps the monoid laws, that its groups are the blocks ``make_blocks``
builds over a Dataset, that a DEDUP query over each blocking op reports
only verified pairs and what ``deduplicate(op=)`` reports, and that a
CLUSTER BY query repairs what ``validate_terms`` repairs — on every
backend (``REPRO_TEST_WORKERS`` workers for the parallel one).
"""

from functools import partial

import pytest

from fixtures import WORKERS
from repro import CleanDB
from repro.cleaning import (
    assign_to_centers,
    deduplicate,
    make_blocks,
    reservoir_sample,
    similarity,
    validate_terms,
)
from repro.cleaning.blocking import BLOCKERS
from repro.cleaning.tokenize import qgrams
from repro.core.parser import parse
from repro.core.rewriter import rewrite_query
from repro.engine import Cluster
from repro.errors import PlanningError
from repro.monoid import MultiGroupMonoid, check_monoid_laws
from repro.physical.functions import query_functions

KINDS = ("token_filtering", "kmeans", "length_filtering", "exact")
BACKENDS = ("row", "vectorized", "parallel")
PLAIN = "SELECT * FROM words w DEDUP(token_filtering, LD, 0.8, w.term)"
KMEANS = "SELECT w.term FROM words w, dictionary d CLUSTER BY(kmeans, LD, 0.7, w.term)"
WORDS = ["smith", "smyth", "jones", "joned", "brown", "braun", "ab", ""]
DICTIONARY = ["smith", "jones", "brown"]


def block_keys(sql=PLAIN, dictionary=DICTIONARY, q=3, k=2, delta=0.0, seed=13):
    """The ``block_keys`` builtin bound as ``sql`` over the test tables."""
    query = parse(sql)
    tables = {"words": [{"term": w} for w in WORDS], "dictionary": list(dictionary)}
    functions = query_functions(
        rewrite_query(query), query.primary_table.name, tables,
        q=q, k=k, delta=delta, seed=seed, sim_filters=True,
    )
    return functions["block_keys"]


def nest_monoid(keys):
    """The Nest monoid a query folds a blocking op with."""
    return MultiGroupMonoid(keys_func=keys)


def as_sets(groups):
    return {key: frozenset(members) for key, members in groups.items()}


class TestTokenFiltering:
    @pytest.mark.parametrize("word, q, want", [
        ("abc", 2, {"ab", "bc"}),
        ("smith", 3, {"smi", "mit", "ith"}),
        ("aaaa", 2, {"aa"}),  # a repeated token is one group, not two
        ("ab", 5, {"ab"}),  # shorter than q: the word is its own token
        ("", 3, {""}),  # the empty word still lands in a group
    ])
    def test_keys_are_the_words_qgrams(self, word, q, want):
        keys = block_keys(q=q)("token_filtering", word)
        assert sorted(keys) == sorted(want)
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_keys_agree_with_the_tokenizer(self, q):
        keys = block_keys(q=q)
        for word in WORDS:
            assert set(keys("token_filtering", word)) == (set(qgrams(word, q)) or {""})

    def test_the_unit_puts_a_word_in_every_token_group(self):
        unit = nest_monoid(partial(block_keys(q=2), "token_filtering")).unit("abc")
        assert as_sets(unit) == {"ab": frozenset({"abc"}), "bc": frozenset({"abc"})}

    def test_q_trades_recall_for_cost(self):
        # "smith"/"smyth" share the 2-grams "sm" and "th", so q=2 puts them
        # in a common group; with q=3 they share no token, the recall-vs-cost
        # trade-off Fig. 3 and Table 3 explore over q.
        for q, shared in ((2, True), (3, False)):
            monoid = nest_monoid(partial(block_keys(q=q), "token_filtering"))
            groups = monoid.fold(["smith", "smyth"])
            assert any(len(members) == 2 for members in groups.values()) is shared


class TestKMeans:
    def test_assigns_to_the_closest_center(self):
        keys = block_keys(KMEANS, dictionary=["aaaa", "zzzz"], k=2)
        centers = reservoir_sample(["aaaa", "zzzz"], 2, seed=13)
        assert keys("kmeans", "aaab") == [centers.index("aaaa")]
        assert keys("kmeans", "zzzy") == [centers.index("zzzz")]

    def test_delta_allows_overlapping_assignment(self):
        # "abcd" is its own center (similarity 1) and 0.75 from "abce"
        wide = block_keys(KMEANS, dictionary=["abcd", "abce"], k=2, delta=0.3)
        assert sorted(wide("kmeans", "abcd")) == [0, 1]
        strict = block_keys(KMEANS, dictionary=["abcd", "abce"], k=2, delta=0.2)
        assert len(strict("kmeans", "abcd")) == 1

    def test_keys_are_deterministic_for_a_seed(self):
        dictionary = [f"term{i:03d}" for i in range(100)]
        first = block_keys(KMEANS, dictionary=dictionary, k=5, seed=7)
        second = block_keys(KMEANS, dictionary=dictionary, k=5, seed=7)
        assert [first("kmeans", w) for w in WORDS] == [second("kmeans", w) for w in WORDS]

    def test_keys_follow_the_sampled_centers(self):
        dictionary = [f"term{i:03d}" for i in range(100)]
        centers = reservoir_sample(dictionary, 5, seed=7)
        keys = block_keys(KMEANS, dictionary=dictionary, k=5, seed=7, delta=0.05)
        for word in WORDS + dictionary[:10]:
            assert keys("kmeans", word) == assign_to_centers(word, centers, "LD", 0.05)

    def test_terms_are_assigned_under_the_operations_metric(self):
        sql = "SELECT w.term FROM words w, dictionary d CLUSTER BY(kmeans, jaro, 0.7, w.term)"
        keys = block_keys(sql, k=2)
        centers = reservoir_sample(DICTIONARY, 2, seed=13)
        for word in ("jones", "joned", "ab"):
            assert keys("kmeans", word) == assign_to_centers(word, centers, "jaro", 0.0)
            assert keys("kmeans", word) != assign_to_centers(word, centers, "LD", 0.0)

    def test_the_api_assigns_under_the_dedup_metric(self):
        ds = Cluster(num_nodes=2).parallelize([{"term": w} for w in WORDS], chunking="contiguous")
        blocks = deduplicate(
            ds, ["term"], metric="jaro", theta=0.0, op="kmeans", op_params={"k": 2}
        ).collect()
        centers = reservoir_sample(WORDS, 2, seed=13)
        groups = {}
        for word in WORDS:
            for key in assign_to_centers(word, centers, "jaro", 0.0):
                groups.setdefault(key, set()).add(word)
        want = {frozenset((a, b)) for g in groups.values() for a in g for b in g if a != b}
        assert {frozenset((p.left["term"], p.right["term"])) for p in blocks} == want

    def test_k_above_the_dictionary_makes_every_term_a_center(self):
        keys = block_keys(KMEANS, dictionary=DICTIONARY, k=10)
        # each dictionary term is exactly its own center, so no two share one
        assignments = [keys("kmeans", term) for term in DICTIONARY]
        assert all(len(a) == 1 for a in assignments)
        assert sorted(a[0] for a in assignments) == [0, 1, 2]

    def test_an_empty_dictionary_gives_one_block(self):
        keys = block_keys(KMEANS, dictionary=[], k=3)
        assert {tuple(keys("kmeans", w)) for w in WORDS} == {(0,)}


class TestOtherKinds:
    def test_length_filtering_bands_by_half_the_length(self):
        keys = block_keys()
        assert [keys("length_filtering", w) for w in ("", "a", "ab", "abc", "smith")] == [
            [0], [0], [1], [1], [2]
        ]

    @pytest.mark.parametrize("kind", ["exact", "key"])
    def test_exact_keys_are_the_term_itself(self, kind):
        keys = block_keys()
        assert keys(kind, "smith") == ["smith"]
        assert keys(kind, 42) == ["42"]

    def test_an_unknown_kind_is_a_planning_error(self):
        with pytest.raises(PlanningError, match="minhash"):
            block_keys()("minhash", "smith")

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_term_lands_in_a_group(self, kind):
        groups = nest_monoid(partial(block_keys(KMEANS), kind)).fold(WORDS)
        covered = set().union(*groups.values())
        assert covered == set(WORDS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_nest_monoid_keeps_the_laws(self, kind):
        check_monoid_laws(nest_monoid(partial(block_keys(KMEANS), kind)), WORDS, normalize=as_sets)


class TestDatasetBlocksAgree:
    """A query's Nest groups are the blocks the Dataset blockers build."""

    @staticmethod
    def dataset_blocks(blocks):
        return {key: frozenset(r["term"] for r in members) for key, members in blocks.collect()}

    @pytest.mark.parametrize("grouping", ["aggregate", "sort", "hash"])
    @pytest.mark.parametrize("q", [2, 3])
    def test_token_filtering(self, q, grouping):
        nest = nest_monoid(partial(block_keys(q=q), "token_filtering")).fold(WORDS)
        ds = Cluster(num_nodes=3).parallelize([{"term": w} for w in WORDS])
        blocks = make_blocks("token_filtering", ds, lambda r: r["term"], q=q, grouping=grouping)
        assert as_sets(nest) == self.dataset_blocks(blocks)

    @pytest.mark.parametrize("grouping", ["aggregate", "sort", "hash"])
    def test_kmeans_over_the_same_centers(self, grouping):
        nest = nest_monoid(partial(block_keys(KMEANS, k=2), "kmeans")).fold(WORDS)
        ds = Cluster(num_nodes=3).parallelize([{"term": w} for w in WORDS])
        blocks = make_blocks(
            "kmeans", ds, lambda r: r["term"], k=2, dictionary=DICTIONARY, grouping=grouping
        )
        assert as_sets(nest) == self.dataset_blocks(blocks)

    @pytest.mark.parametrize("grouping", ["aggregate", "sort", "hash"])
    def test_length_filtering(self, grouping):
        nest = nest_monoid(partial(block_keys(), "length_filtering")).fold(WORDS)
        ds = Cluster(num_nodes=3).parallelize([{"term": w} for w in WORDS])
        blocks = make_blocks("length_filtering", ds, lambda r: r["term"], width=2, grouping=grouping)
        assert as_sets(nest) == self.dataset_blocks(blocks)


PEOPLE = [
    "alice smith", "alice smyth", "bob jones", "bob jonez", "carol white",
    "carl white", "dave stone", "dave stones", "eve", "eva",
]
#: The compared column is not the first one: k-means centers are sampled
#: from the compared terms, not from whatever a row holds first.
PEOPLE_ROWS = [{"id": i, "name": n} for i, n in enumerate(PEOPLE)]


def session(execution="row", **params):
    workers = WORKERS if execution == "parallel" else None
    return CleanDB(num_nodes=2, execution=execution, workers=workers, **params)


def query_pairs(op, theta, execution="row", **params):
    with session(execution, **params) as db:
        db.register_table("p", [dict(r) for r in PEOPLE_ROWS])
        result = db.execute(f"SELECT * FROM p x DEDUP({op}, LD, {theta}, x.name)")
    return {frozenset((d["p1"]["name"], d["p2"]["name"])) for d in result.branch("dedup")}


def verified_pairs(theta):
    return {
        frozenset((a, b)) for i, a in enumerate(PEOPLE) for b in PEOPLE[i + 1:]
        if similarity.levenshtein_similarity(a, b) >= theta
    }


class TestDedupQueries:
    @pytest.mark.parametrize("theta", [0.7, 0.85])
    @pytest.mark.parametrize("op", ["token_filtering", "kmeans", "length_filtering"])
    def test_every_reported_pair_verifies(self, op, theta):
        pairs = query_pairs(op, theta, k=3)
        assert pairs and pairs <= verified_pairs(theta)

    @pytest.mark.parametrize("execution", BACKENDS)
    @pytest.mark.parametrize("theta", [0.7, 0.85])
    @pytest.mark.parametrize("op, params", [
        ("token_filtering", {"q": 3}),
        ("length_filtering", {"width": 2}),
        ("kmeans", {"k": 3, "delta": 0.05}),
    ])
    def test_the_query_finds_what_the_dataset_path_finds(self, op, params, theta, execution):
        # Contiguous chunks: the API samples k-means centers in its input's
        # take order, which is then the table's row order.
        ds = Cluster(num_nodes=2).parallelize(PEOPLE_ROWS, chunking="contiguous")
        found = deduplicate(ds, ["name"], op=op, theta=theta, op_params=params).collect()
        want = {frozenset((p.left["name"], p.right["name"])) for p in found}
        assert query_pairs(op, theta, execution, q=3, k=3, delta=0.05) == want

    def test_one_kmeans_center_compares_every_pair(self):
        assert query_pairs("kmeans", 0.7, k=1) == verified_pairs(0.7)


TERMS = ["jhon smith", "mary jonez", "peter brwn", "alice coper", "zzzz", "john smith"]
TERM_DICTIONARY = ["john smith", "mary jones", "peter brown", "alice cooper", "bob ray"]


class TestClusterByQueries:
    @pytest.mark.parametrize("execution", BACKENDS)
    @pytest.mark.parametrize("op", sorted(BLOCKERS))  # every op the query accepts
    def test_the_query_repairs_what_validate_terms_repairs(self, op, execution):
        with session(execution, q=3, k=3, delta=0.05) as db:
            db.register_table("words", [{"id": i, "term": t} for i, t in enumerate(TERMS)])
            db.register_table("dictionary", list(TERM_DICTIONARY))
            result = db.execute(
                f"SELECT w.term FROM words w, dictionary d CLUSTER BY({op}, LD, 0.7, w.term)"
            )
        got = set(map(tuple, result.branch("cluster_by")))
        ds = Cluster(num_nodes=2).parallelize(TERMS)
        repairs = validate_terms(
            ds, TERM_DICTIONARY, op=op, theta=0.7, q=3, k=3, delta=0.05
        ).collect()
        want = {(r.term, word) for r in repairs for word in r.suggestions}
        assert got == want
        # Exact keys never pair a dirty term with a dictionary word.
        assert bool(want) is (op not in ("exact", "key"))

"""Property-based verification of the monoid laws (§4.3).

The paper's central formal claim is that its cleaning building blocks are
monoids: associative merges with an identity, so that any parallel
partitioning + merge order computes the same result.  Hypothesis hunts for
counterexamples on every monoid we define.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monoid import (
    AllMonoid,
    AnyMonoid,
    AvgMonoid,
    BagMonoid,
    CountMonoid,
    GroupMonoid,
    ListMonoid,
    MaxMonoid,
    MinMonoid,
    MultiGroupMonoid,
    SetMonoid,
    SumMonoid,
)
from repro.physical.functions import query_functions

words = st.text(alphabet="abcdefgh", min_size=0, max_size=8)
numbers = st.integers(min_value=-1000, max_value=1000)


def canon_group(value):
    """Canonical form of group-monoid carriers for comparison."""
    return {k: sorted(v) if isinstance(v, list) else v for k, v in value.items()}


@given(st.lists(numbers, min_size=3, max_size=3))
def test_sum_associative(xs):
    m = SumMonoid()
    a, b, c = (m.unit(x) for x in xs)
    assert m.merge(m.merge(a, b), c) == m.merge(a, m.merge(b, c))


@given(numbers)
def test_sum_identity(x):
    m = SumMonoid()
    assert m.merge(m.zero(), m.unit(x)) == m.unit(x)
    assert m.merge(m.unit(x), m.zero()) == m.unit(x)


@given(st.lists(numbers, min_size=0, max_size=20))
def test_count_equals_len(xs):
    assert CountMonoid().fold(xs) == len(xs)


@given(st.lists(numbers, min_size=1, max_size=20))
def test_max_min_match_builtins(xs):
    assert MaxMonoid().fold(xs) == max(xs)
    assert MinMonoid().fold(xs) == min(xs)


@given(st.lists(st.booleans(), min_size=0, max_size=10))
def test_all_any_match_builtins(bs):
    assert AllMonoid().fold(bs) == all(bs)
    assert AnyMonoid().fold(bs) == any(bs)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6),
                min_size=1, max_size=30))
def test_avg_split_merge_equals_whole(xs):
    # Folding two halves then merging must equal folding everything: this is
    # exactly the map-side-combine correctness CleanDB's aggregation relies on.
    m = AvgMonoid()
    mid = len(xs) // 2
    merged = m.merge(m.fold(xs[:mid]), m.fold(xs[mid:]))
    whole = m.fold(xs)
    assert merged[1] == whole[1]
    assert abs(merged[0] - whole[0]) < 1e-6


@given(st.lists(numbers, max_size=15), st.lists(numbers, max_size=15))
def test_list_concat_order(xs, ys):
    m = ListMonoid()
    assert m.merge(m.fold(xs), m.fold(ys)) == xs + ys


@given(st.lists(words, max_size=15))
def test_set_fold_equals_builtin_set(ws):
    assert SetMonoid().fold(ws) == frozenset(ws)


@given(st.lists(words, min_size=3, max_size=3))
def test_bag_associative_up_to_multiset(ws):
    m = BagMonoid()
    a, b, c = (m.unit(w) for w in ws)
    left = m.merge(m.merge(a, b), c)
    right = m.merge(a, m.merge(b, c))
    assert sorted(left) == sorted(right)


def blocking_monoid(kind):
    """The token-filtering / k-means monoid of §4.3 as a query builds it: a
    ``MultiGroupMonoid`` keyed by the ``block_keys`` builtin (q = 2; the
    k = 2 centers are sampled from the primary table's two terms)."""
    builtins = query_functions(
        [], "t", {"t": ["abcd", "efgh"]}, q=2, k=2, delta=0.1, seed=13, sim_filters=True
    )
    return MultiGroupMonoid(keys_func=partial(builtins["block_keys"], kind))


@given(st.lists(words, min_size=3, max_size=3))
def test_token_filter_associative(ws):
    m = blocking_monoid("token_filtering")
    a, b, c = (m.unit(w) for w in ws)
    left = m.merge(m.merge(a, b), c)
    right = m.merge(a, m.merge(b, c))
    assert left == right


@given(st.lists(words, min_size=1, max_size=10))
def test_token_filter_covers_every_word(ws):
    merged = blocking_monoid("token_filtering").fold(ws)
    covered = set()
    for group in merged.values():
        covered |= set(group)
    assert covered == set(ws)


@settings(max_examples=50)
@given(st.lists(words.filter(bool), min_size=3, max_size=3))
def test_kmeans_assign_associative(ws):
    m = blocking_monoid("kmeans")
    a, b, c = (m.unit(w) for w in ws)
    assert m.merge(m.merge(a, b), c) == m.merge(a, m.merge(b, c))


@given(st.lists(st.tuples(st.integers(0, 5), numbers), min_size=0, max_size=30))
def test_group_monoid_matches_dict_grouping(pairs):
    m = GroupMonoid(key_func=lambda kv: kv[0], value_func=lambda kv: kv[1])
    folded = m.fold(pairs)
    expected: dict = {}
    for k, v in pairs:
        expected.setdefault(k, []).append(v)
    assert canon_group(folded) == canon_group(expected)


@given(st.lists(st.tuples(st.integers(0, 5), numbers), min_size=2, max_size=30))
def test_group_monoid_split_invariance(pairs):
    # Any split point gives the same merged grouping — the parallelism claim.
    m = GroupMonoid(key_func=lambda kv: kv[0], value_func=lambda kv: kv[1])
    whole = m.fold(pairs)
    for cut in (1, len(pairs) // 2, len(pairs) - 1):
        merged = m.merge(m.fold(pairs[:cut]), m.fold(pairs[cut:]))
        assert canon_group(merged) == canon_group(whole)

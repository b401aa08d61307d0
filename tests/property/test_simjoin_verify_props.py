"""Hypothesis: ``SimJoin.verify`` decides and counts exactly as its list-based body did.

``verify`` is the one pair verifier behind every dedup driver,
``record_matcher`` / ``similar_records``, the parallel workers and
``IncrementalDedup``.  It used to build a ``bounds`` list and a ``suffix``
list per pair and call ``_length_bound`` / ``_mean`` / ``_count_bound``;
now a rejected pair allocates nothing and calls no helper.  The reference
below is that earlier body and its helpers, written out.  Over random strings (empty and
non-ASCII included), 1-3 attributes, every ``FilterConfig`` and the count
filter with and without a ``BagCache``, both must return the same decision
for every pair and leave every ``JoinStats`` field equal — ``work``, a
float sum whose value depends on the order of its additions, by ``repr``.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cleaning.similarity import EPSILON, levenshtein_distance
from repro.cleaning.simjoin import NO_FILTERS, BagCache, FilterConfig, SimJoin

ATTRS = ("a", "b", "c")
COPIES = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(ATTRS)), max_size=8
)
words = st.one_of(st.text(alphabet="ab é漢", max_size=8), st.text(max_size=6))
FILTERS = st.one_of(
    st.just(NO_FILTERS),
    st.builds(
        FilterConfig,
        length_filter=st.booleans(),
        count_filter=st.booleans(),
        banding=st.booleans(),
        ownership=st.booleans(),
        q=st.sampled_from([1, 2, 3]),
    ),
)
PROPS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _mean(bounds):
    total = 0.0
    for bound in bounds:
        total += bound
    return total / len(bounds)


def _length_bound(len_a, len_b):
    longest = len_a if len_a >= len_b else len_b
    return 1.0 - abs(len_a - len_b) / longest if longest else 1.0


def _count_bound(longest, shared, q):
    min_distance = -(-(longest - q + 1 - shared) // q)
    return 1.0 - min_distance / longest if min_distance > 0 else 1.0


def reference_verify(join: SimJoin, a, b, scored=False):
    """The pre-change ``SimJoin.verify``, with the helpers it called; with
    ``scored``, the accepted pair's score (``None`` when rejected), as
    ``verify(scored=True)`` answers."""
    reject = None if scored else False
    stats = join.stats
    stats.candidates += 1
    n = len(join.attributes)
    theta = join.theta
    cfg = join.filters
    lengths_a, lengths_b = a.lengths, b.lengths
    bounds = [1.0] * n
    if join.bounded:
        stats.work += join.filter_unit
        if cfg.length_filter:
            bounds = [_length_bound(x, y) for x, y in zip(lengths_a, lengths_b)]
            if _mean(bounds) < theta:
                return reject
        if cfg.count_filter:
            bags_a, bags_b = join._bags(a), join._bags(b)
            for i in range(n):
                bound = _count_bound(
                    max(lengths_a[i], lengths_b[i]), len(bags_a[i] & bags_b[i]), cfg.q
                )
                if bound < bounds[i]:
                    bounds[i] = bound
            if _mean(bounds) < theta:
                return reject
    banding = join.bounded and cfg.banding
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]

    stats.verified += 1
    total = 0.0
    for i in range(n):
        term_a, term_b = a.terms[i], b.terms[i]
        len_a, len_b = lengths_a[i], lengths_b[i]
        stats.work += (len_a + len_b) * join.compare_unit
        stats.metric_calls += 1
        if banding:
            longest = len_a if len_a >= len_b else len_b
            if longest == 0:
                total += 1.0
                continue
            need = theta * n - total - suffix[i + 1]
            if need > EPSILON:
                budget = int(math.ceil((1.0 - need + EPSILON) * longest))
                if budget < 0:
                    return reject
                wide, narrow = (a, b) if len_a >= len_b else (b, a)
                distance = levenshtein_distance(
                    wide.terms[i], narrow.terms[i], budget, wide.masks(i)
                )
                if distance > budget:
                    return reject
                total += 1.0 - distance / longest
                continue
        total += join.sim(term_a, term_b)
    passed = total / n >= theta
    if passed:
        stats.pairs += 1
    return (total / n if passed else None) if scored else passed


def _side(attrs, theta, filters, metric, cached, records):
    join = SimJoin(attrs, metric, theta, filters, compare_unit=0.1, filter_unit=0.03)
    if cached:
        join.bags = BagCache(join.filters.q)
    return join, [join.prepare(i, r) for i, r in enumerate(records)]


def _stats(join: SimJoin) -> tuple:
    s = join.stats
    return (s.candidates, s.verified, s.metric_calls, s.pairs, repr(s.work))


@PROPS
@given(
    records=st.lists(st.fixed_dictionaries({a: words for a in ATTRS}), min_size=1, max_size=6),
    width=st.integers(min_value=1, max_value=3),
    theta=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
    filters=FILTERS,
    metric=st.sampled_from(["LD", "LD", "LD", "jaccard"]),
    cached=st.booleans(),
)
def test_verify_matches_the_list_based_body(records, width, theta, filters, metric, cached):
    attrs = ATTRS[:width]
    new, new_records = _side(attrs, theta, filters, metric, cached, records)
    old, old_records = _side(attrs, theta, filters, metric, cached, records)
    for i in range(len(records)):
        for j in range(len(records)):  # both orders, and a record with itself
            decision = new.verify(new_records[i], new_records[j])
            assert decision == reference_verify(old, old_records[i], old_records[j]), (i, j)
            assert _stats(new) == _stats(old), (i, j)


def test_the_domain_reaches_every_exit():
    """Not vacuous: the fixed pairs below leave verify by the length filter,
    the count filter, the band and the final comparison."""
    attrs = ("a", "b")
    cases = [
        ({"a": "abcdefgh", "b": "x"}, {"a": "a", "b": "x"}),  # length filter
        ({"a": "abcdef", "b": "uvwxyz"}, {"a": "fedcba", "b": "zyxwvu"}),  # count filter
        ({"a": "abcdefgh", "b": "xy"}, {"a": "abcdwxyz", "b": "xy"}),  # band
        ({"a": "abcdefgh", "b": "xy"}, {"a": "abcdefgx", "b": "xy"}),  # accepted
    ]
    outcomes = []
    for left, right in cases:
        new, (a, b) = _side(attrs, 0.8, None, "LD", False, [left, right])
        old, (c, d) = _side(attrs, 0.8, None, "LD", False, [left, right])
        decision = new.verify(a, b)
        assert decision == reference_verify(old, c, d)
        assert _stats(new) == _stats(old)
        outcomes.append((decision, new.stats.verified))
    assert outcomes == [(False, 0), (False, 0), (False, 1), (True, 1)]


@PROPS
@given(
    records=st.lists(st.fixed_dictionaries({a: words for a in ATTRS}), min_size=1, max_size=6),
    copies=COPIES,
    width=st.integers(min_value=1, max_value=3),
    theta=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
    filters=FILTERS,
    cached=st.booleans(),
)
def test_equal_terms_score_as_the_scan_scored_them(records, copies, width, theta, filters, cached):
    """Terms copied between records, so that many pairs share an attribute's
    text: a banded attribute with equal terms skips its scan.  The score
    (and so the decision) is the unbanded naive loop's, and every
    ``JoinStats`` field the list-based body's, which scanned it."""
    for i, j, attr in copies:
        records[j % len(records)][attr] = records[i % len(records)][attr]
    attrs = ATTRS[:width]
    new, new_records = _side(attrs, theta, filters, "LD", cached, records)
    old, old_records = _side(attrs, theta, filters, "LD", cached, records)
    naive, naive_records = _side(attrs, theta, NO_FILTERS, "LD", False, records)
    for i in range(len(records)):
        for j in range(len(records)):
            score = new.verify(new_records[i], new_records[j], scored=True)
            assert score == reference_verify(old, old_records[i], old_records[j], scored=True)
            assert _stats(new) == _stats(old), (i, j)
            assert score == naive.verify(naive_records[i], naive_records[j], scored=True)


def test_an_equal_banded_term_skips_its_scan(monkeypatch):
    """Work count: a pair whose terms are equal on every attribute runs no
    edit-distance scan, and is counted as compared on each."""
    import repro.cleaning.simjoin as simjoin

    scans = []
    real = simjoin.levenshtein_distance
    monkeypatch.setattr(simjoin, "levenshtein_distance", lambda *a: scans.append(a) or real(*a))
    row = {"a": "12 rue des lilas", "b": "anne-marie lee"}
    join, (a, b) = _side(("a", "b"), 0.8, None, "LD", False, [row, dict(row)])
    assert join.verify(a, b, scored=True) == 1.0
    assert scans == [] and join.stats.metric_calls == 2 and join.stats.verified == 1


def test_a_hopeless_pair_stops_before_its_equal_term():
    """The band's early reject comes first: after ``abcd`` / ``abce``
    (0.75) no score can reach theta 1.0, so the pair is rejected at the
    equal ``b`` terms, and ``c`` is never compared — as the scan did."""
    attrs = ("a", "b", "c")
    banded = FilterConfig(length_filter=False, count_filter=False, banding=True)
    left = {"a": "abcd", "b": "abcdefgh", "c": "x"}
    right = {"a": "abce", "b": "abcdefgh", "c": "y"}
    new, (a, b) = _side(attrs, 1.0, banded, "LD", False, [left, right])
    old, (c, d) = _side(attrs, 1.0, banded, "LD", False, [left, right])
    assert new.verify(a, b) is reference_verify(old, c, d) is False
    assert _stats(new) == _stats(old) and new.stats.metric_calls == 2

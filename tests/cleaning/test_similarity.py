"""Unit tests for similarity metrics."""

import pytest

from repro.cleaning import (
    get_metric,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    register_metric,
    similar,
)
from repro.cleaning.similarity import record_matcher


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ("", "", 0), ("a", "", 1), ("", "abc", 3), ("abc", "abc", 0),
            ("kitten", "sitting", 3), ("flaw", "lawn", 2), ("abc", "acb", 2),
        ],
    )
    def test_distances(self, a, b, d):
        assert levenshtein_distance(a, b) == d

    def test_symmetric(self):
        assert levenshtein_distance("abcd", "dcba") == levenshtein_distance("dcba", "abcd")

    def test_band_early_exit_returns_over_budget(self):
        assert levenshtein_distance("aaaa", "zzzz", max_distance=1) > 1

    def test_band_exact_when_within(self):
        assert levenshtein_distance("kitten", "sitting", max_distance=5) == 3

    def test_band_length_difference_shortcut(self):
        assert levenshtein_distance("a", "abcdefgh", max_distance=2) == 3

    def test_similarity_range(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0
        assert levenshtein_similarity("", "") == 1.0

    def test_similarity_partial(self):
        assert levenshtein_similarity("abcd", "abcx") == pytest.approx(0.75)


class TestJaccard:
    def test_identical(self):
        assert jaccard_similarity("token", "token") == 1.0

    def test_disjoint(self):
        assert jaccard_similarity("aaaa", "zzzz") == 0.0

    def test_empty_strings(self):
        assert jaccard_similarity("", "") == 1.0


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_classic_example(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_empty(self):
        assert jaro_similarity("", "x") == 0.0

    def test_winkler_boosts_common_prefix(self):
        plain = jaro_similarity("prefixed", "prefixes")
        boosted = jaro_winkler_similarity("prefixed", "prefixes")
        assert boosted > plain


class TestRegistry:
    def test_ld_alias(self):
        assert get_metric("LD") is get_metric("levenshtein")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            get_metric("cosine")

    def test_register_extension(self):
        register_metric("always_one", lambda a, b: 1.0)
        assert get_metric("always_one")("x", "y") == 1.0


#: The metric names a CleanM query can spell.
QUERY_METRICS = ["LD", "levenshtein", "jaccard", "jaro", "jaro_winkler"]
PAIRS = [("smith", "smyth"), ("alice smith", "smith alice"), ("ab", "abc"), ("", "x")]


@pytest.mark.parametrize("name", QUERY_METRICS)
class TestEveryQueryMetric:
    def test_identical_terms_score_one(self, name):
        metric = get_metric(name)
        assert all(metric(t, t) == 1.0 for t in ["smith", "a", "alice smith"])

    def test_symmetric_and_in_the_unit_interval(self, name):
        metric = get_metric(name)
        for a, b in PAIRS:
            assert metric(a, b) == metric(b, a)
            assert 0.0 <= metric(a, b) <= 1.0

    def test_a_near_match_outscores_an_unrelated_term(self, name):
        metric = get_metric(name)
        assert metric("smith", "smyth") > metric("smith", "qwuvz")

    def test_the_similar_predicate_is_the_metric_at_theta(self, name):
        metric = get_metric(name)
        for a, b in PAIRS:
            for theta in (0.3, 0.6, 0.9):
                assert similar(name, a, b, theta) == (metric(a, b) >= theta)


class TestSimilarPredicate:
    def test_threshold_pass(self):
        assert similar("LD", "smith", "smyth", 0.7)

    def test_threshold_fail(self):
        assert not similar("LD", "smith", "jones", 0.7)

    def test_empty_strings_similar(self):
        assert similar("LD", "", "", 0.9)

    def test_matches_unbanded_similarity(self):
        # The banded fast path must agree with the plain similarity check.
        pairs = [("abcdef", "abcxef"), ("a", "ab"), ("same", "same"), ("ab", "ba")]
        for a, b in pairs:
            for theta in (0.3, 0.5, 0.8):
                assert similar("LD", a, b, theta) == (
                    levenshtein_similarity(a, b) >= theta
                )


class TestRecordSimilarity:
    def test_average_over_attributes(self):
        left = {"a": "same", "b": "xxxx"}
        right = {"a": "same", "b": "yyyy"}
        # attribute sims: 1.0 and 0.0 -> mean 0.5
        assert record_matcher(["a", "b"], "LD", 0.5)(left, right)
        assert not record_matcher(["a", "b"], "LD", 0.6)(left, right)

    def test_missing_attrs_treated_as_empty(self):
        assert record_matcher(["a"], "LD", 0.9)({}, {})

    def test_no_attributes_rejected(self):
        with pytest.raises(ValueError):
            record_matcher([], "LD", 0.5)

    def test_matcher_agrees_with_the_one_pair_form_and_prepares_rows_once(self, monkeypatch):
        from repro.cleaning.simjoin import SimJoin

        rows = [{"a": w, "b": w[::-1]} for w in ("lake", "like", "bike", "", "lakes")]
        prepared = []
        prepare = SimJoin.prepare
        monkeypatch.setattr(
            SimJoin, "prepare",
            lambda self, rid, record: prepared.append(record) or prepare(self, rid, record),
        )
        for banded in (True, False):
            match = record_matcher(["a", "b"], "LD", 0.6, banded=banded)
            del prepared[:]
            verdicts = [match(x, y) for x in rows for y in rows]
            assert len(prepared) == len(rows)
            assert verdicts == [
                record_matcher(["a", "b"], "LD", 0.6, banded=False)(x, y)
                for x in rows for y in rows
            ]

"""Unit tests for similarity metrics."""

import pytest

from repro.cleaning import (
    euclidean_similarity,
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


class TestEuclidean:
    def test_zero_distance(self):
        assert euclidean_similarity([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_monotone_in_distance(self):
        near = euclidean_similarity([0.0], [1.0])
        far = euclidean_similarity([0.0], [10.0])
        assert near > far

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_similarity([1.0], [1.0, 2.0])


class TestRegistry:
    def test_ld_alias(self):
        assert get_metric("LD") is get_metric("levenshtein")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            get_metric("cosine")

    def test_register_extension(self):
        register_metric("always_one", lambda a, b: 1.0)
        assert get_metric("always_one")("x", "y") == 1.0


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

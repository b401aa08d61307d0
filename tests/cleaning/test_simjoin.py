"""Unit tests for the filtered similarity-join kernel."""

import pytest

from repro.cleaning.similarity import levenshtein_similarity
from repro.cleaning.simjoin import (
    DEFAULT_FILTERS,
    NO_FILTERS,
    FilterConfig,
    JoinStats,
    SimJoin,
    banded_ld_similarity,
    gram_bag,
    ld_upper_bound,
    resolve_filters,
)

WORDS = [
    "", "a", "alice", "alice smith", "alice smyth", "bob jones",
    "cleaning data at scale", "clean data at scale", "xylophone",
]


class TestFilterConfig:
    def test_defaults_enable_everything(self):
        cfg = FilterConfig()
        assert cfg.length_filter and cfg.count_filter and cfg.banding
        assert cfg.ownership and cfg.prunes

    def test_no_filters_disables_pruning(self):
        assert not NO_FILTERS.prunes
        assert not NO_FILTERS.ownership

    def test_resolve_none_means_defaults(self):
        assert resolve_filters(None) is DEFAULT_FILTERS
        custom = FilterConfig(banding=False)
        assert resolve_filters(custom) is custom


class TestGramBag:
    def test_counts_bag_intersection(self):
        # q=1 grams are the characters: bags {a,b,b,c} and {b,b,b,d}.
        assert len(gram_bag("abbc", 1) & gram_bag("bbbd", 1)) == 2
        assert len(gram_bag("", 1) & gram_bag("a", 1)) == 0
        assert len(gram_bag("x", 1) & gram_bag("x", 1)) == 1


class TestBounds:
    @pytest.mark.parametrize("a", WORDS)
    @pytest.mark.parametrize("b", WORDS)
    def test_upper_bound_is_sound(self, a, b):
        assert levenshtein_similarity(a, b) <= ld_upper_bound(a, b)

    @pytest.mark.parametrize("theta", [0.5, 0.6, 0.8, 0.9, 1.0])
    @pytest.mark.parametrize("a", WORDS)
    @pytest.mark.parametrize("b", WORDS)
    def test_banded_similarity_exact_or_below_theta(self, theta, a, b):
        exact = levenshtein_similarity(a, b)
        banded = banded_ld_similarity(a, b, theta)
        if banded is None:
            assert exact < theta
        else:
            assert banded == exact


def _join(attributes, theta, filters=None, metric="LD"):
    return SimJoin(attributes, metric=metric, theta=theta, filters=filters)


class TestVerify:
    @pytest.mark.parametrize("theta", [0.5, 0.75, 0.8, 1.0])
    def test_matches_naive_decision_everywhere(self, theta):
        filtered = _join(["x", "y"], theta)
        naive = _join(["x", "y"], theta, filters=NO_FILTERS)
        records = [
            {"x": a, "y": b} for a in WORDS for b in WORDS
        ]
        for i, left in enumerate(records):
            for right in records[i + 1:]:
                a1 = filtered.prepare(1, left)
                b1 = filtered.prepare(2, right)
                a2 = naive.prepare(1, left)
                b2 = naive.prepare(2, right)
                assert filtered.verify(a1, b1) == naive.verify(a2, b2)

    def test_boundary_pair_exactly_at_theta_passes(self):
        # distance 1 over length 4 -> similarity exactly 0.75.
        join = _join(["x"], 0.75)
        a = join.prepare(1, {"x": "abcd"})
        b = join.prepare(2, {"x": "abce"})
        assert join.verify(a, b)
        assert join.stats.verified == 1

    def test_filters_skip_the_metric(self):
        join = _join(["x"], 0.9)
        a = join.prepare(1, {"x": "alice smith"})
        b = join.prepare(2, {"x": "xyz"})
        assert not join.verify(a, b)
        assert join.stats.candidates == 1
        assert join.stats.verified == 0
        assert join.stats.metric_calls == 0

    def test_no_filters_verifies_every_candidate(self):
        join = _join(["x"], 0.9, filters=NO_FILTERS)
        a = join.prepare(1, {"x": "alice smith"})
        b = join.prepare(2, {"x": "xyz"})
        assert not join.verify(a, b)
        assert join.stats.candidates == join.stats.verified == 1
        assert join.stats.metric_calls == 1

    def test_non_ld_metric_runs_unfiltered(self):
        join = _join(["x"], 0.5, metric="jaccard")
        assert not join.bounded
        a = join.prepare(1, {"x": "abcdef"})
        b = join.prepare(2, {"x": "z"})
        join.verify(a, b)
        assert join.stats.verified == 1


class TestJoinMembers:
    def test_each_unordered_pair_once_and_rid_ordered(self):
        join = _join(["x"], 0.0, filters=NO_FILTERS)
        members = [join.prepare(rid, {"x": "same"}) for rid in (3, 1, 2)]
        pairs = list(join.join_members(members))
        assert [(a.rid, b.rid) for a, b in pairs] == [(1, 3), (2, 3), (1, 2)]
        assert join.stats.candidates == 3

    def test_equal_rids_are_skipped(self):
        join = _join(["x"], 0.0, filters=NO_FILTERS)
        members = [join.prepare(7, {"x": "same"}) for _ in range(2)]
        assert list(join.join_members(members)) == []
        assert join.stats.candidates == 0


class TestOwnership:
    def _parts(self, join):
        """Two overlapping token-style blocks sharing the same two records."""
        a = join.prepare(0, {"x": "alice"})
        b = join.prepare(1, {"x": "alice"})
        c = join.prepare(2, {"x": "alicf"})
        # Block "ali" holds everyone; block "lic" holds a and b again.
        return [[("ali", [a, b, c])], [("lic", [a, b])]]

    def test_pair_verified_exactly_once_across_blocks(self):
        join = _join(["x"], 0.6)
        out_parts, work = join.join_grouped_partitions(self._parts(join))
        found = [(a.rid, b.rid) for part in out_parts for a, b in part]
        # (0, 1) shares both blocks but is charged once; candidates are the
        # three unique pairs.
        assert sorted(found) == [(0, 1), (0, 2), (1, 2)]
        assert join.stats.candidates == 3
        assert len(work) == 2

    def test_owner_is_least_frequent_block(self):
        join = _join(["x"], 0.6)
        out_parts, _ = join.join_grouped_partitions(self._parts(join))
        # Pair (0, 1) must be verified in the smaller "lic" block (partition
        # 1), not in the first block encountered.
        assert (0, 1) in [(a.rid, b.rid) for a, b in out_parts[1]]
        assert (0, 1) not in [(a.rid, b.rid) for a, b in out_parts[0]]

    def test_ownership_off_uses_global_seen(self):
        join = _join(["x"], 0.6, filters=NO_FILTERS)
        out_parts, _ = join.join_grouped_partitions(self._parts(join))
        found = [(a.rid, b.rid) for part in out_parts for a, b in part]
        assert sorted(found) == [(0, 1), (0, 2), (1, 2)]
        assert join.stats.candidates == 3
        # With the naive configuration the pair lands in the first block.
        assert (0, 1) in [(a.rid, b.rid) for a, b in out_parts[0]]


class TestJoinStats:
    def test_merge_adds_counters(self):
        left = JoinStats(candidates=2, verified=1, metric_calls=3, pairs=1, work=0.5)
        right = JoinStats(candidates=1, verified=1, metric_calls=1, pairs=0, work=0.25)
        left.merge(right)
        assert (left.candidates, left.verified, left.metric_calls, left.pairs) == (
            3, 2, 4, 1,
        )
        assert left.work == pytest.approx(0.75)

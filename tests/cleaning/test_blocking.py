"""Unit tests for the blocking strategies: the blocker table as
``make_blocks`` runs it over a Dataset, and exact-key ``key_blocks``."""

import pickle

import pytest

from repro.cleaning import key_blocks, make_blocks
from repro.cleaning.blocking import BLOCKERS, blocker
from repro.cleaning.tokenize import qgrams, words
from repro.engine import Cluster


@pytest.fixture
def cluster():
    return Cluster(num_nodes=4)


WORDS = [{"w": w} for w in ["smith", "smyth", "jones", "joned", "brown"]]


class TestQgrams:
    def test_basic(self):
        assert qgrams("abcd", 2) == ["ab", "bc", "cd"]

    def test_short_string_returns_itself(self):
        assert qgrams("ab", 3) == ["ab"]

    def test_empty(self):
        assert qgrams("", 3) == []

    def test_padding_adds_edge_tokens(self):
        padded = qgrams("ab", 3, pad=True)
        assert "##a" in padded and "b##" in padded

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", 0)

    def test_words(self):
        assert words("Hello World") == ["hello", "world"]


class TestKeyBlocks:
    def test_groups_by_exact_key(self, cluster):
        data = [{"k": "a"}, {"k": "a"}, {"k": "b"}]
        blocks = dict(key_blocks(cluster.parallelize(data), lambda r: r["k"]).collect())
        assert len(blocks["a"]) == 2 and len(blocks["b"]) == 1


class TestTokenBlocks:
    def test_record_in_every_token_group(self, cluster):
        ds = cluster.parallelize([{"w": "abc"}])
        blocks = dict(make_blocks("token_filtering", ds, lambda r: r["w"], q=2).collect())
        assert set(blocks) == {"ab", "bc"}

    def test_similar_words_share_group(self, cluster):
        ds = cluster.parallelize(WORDS)
        blocks = make_blocks("token_filtering", ds, lambda r: r["w"], q=2).collect()
        shared = [
            {r["w"] for r in members}
            for _, members in blocks
            if len(members) > 1
        ]
        assert any({"smith", "smyth"} <= s for s in shared)

    def test_larger_q_makes_more_selective_groups(self, cluster):
        ds2 = cluster.parallelize(WORDS)
        ds4 = cluster.parallelize(WORDS)
        blocks2 = make_blocks("token_filtering", ds2, lambda r: r["w"], q=2).collect()
        blocks4 = make_blocks("token_filtering", ds4, lambda r: r["w"], q=4).collect()
        avg2 = sum(len(m) for _, m in blocks2) / len(blocks2)
        avg4 = sum(len(m) for _, m in blocks4) / len(blocks4)
        assert avg4 <= avg2


class TestKMeansBlocks:
    def test_blocks_keyed_by_center_index(self, cluster):
        ds = cluster.parallelize(WORDS)
        blocks = make_blocks(
            "kmeans", ds, lambda r: r["w"], dictionary=["smith", "jones"]
        ).collect()
        keys = {k for k, _ in blocks}
        assert keys <= {0, 1}

    def test_all_records_covered(self, cluster):
        ds = cluster.parallelize(WORDS)
        blocks = make_blocks("kmeans", ds, lambda r: r["w"], k=2, dictionary=["smith", "jones"]).collect()
        covered = {r["w"] for _, members in blocks for r in members}
        assert covered == {r["w"] for r in WORDS}


class TestLengthBlocks:
    def test_bands_by_length(self, cluster):
        ds = cluster.parallelize([{"w": "ab"}, {"w": "abc"}, {"w": "abcdefgh"}])
        blocks = dict(make_blocks("length_filtering", ds, lambda r: r["w"], width=4).collect())
        assert set(blocks) == {0, 2}

    def test_invalid_width(self, cluster):
        with pytest.raises(ValueError):
            make_blocks("length_filtering", cluster.parallelize(WORDS), lambda r: r["w"], width=0)


class TestBlockerTable:
    @pytest.mark.parametrize("op", sorted(BLOCKERS))
    def test_every_key_function_pickles(self, op):
        """A bound blocker is a module-level function over picklable
        arguments, so it can ship to a worker process as it is."""
        keys = blocker(op, k=2, dictionary=["smith", "jones"])
        again = pickle.loads(pickle.dumps(keys))
        assert [again(r["w"]) for r in WORDS] == [keys(r["w"]) for r in WORDS]

    def test_an_unknown_op_names_the_known_ones(self):
        with pytest.raises(ValueError, match="known: exact, key, kmeans"):
            blocker("minhash")


class TestMakeBlocks:
    def test_dispatch(self, cluster):
        ds = cluster.parallelize(WORDS)
        blocks = make_blocks("token_filtering", ds, lambda r: r["w"], q=2)
        assert blocks.count() > 0

    def test_unknown_op(self, cluster):
        with pytest.raises(ValueError):
            make_blocks("minhash", cluster.parallelize(WORDS), lambda r: r["w"])

    @pytest.mark.parametrize(
        "op, params",
        [("token_filtering", {}), ("kmeans", {"dictionary": ["smith"]}), ("length_filtering", {})],
    )
    def test_unknown_grouping_is_rejected_before_it_is_charged(self, cluster, op, params):
        ds = cluster.parallelize(WORDS)
        before = list(cluster.metrics.ops)
        with pytest.raises(ValueError):
            make_blocks(op, ds, lambda r: r["w"], grouping="merge", **params)
        with pytest.raises(ValueError):
            key_blocks(ds, lambda r: r["w"], grouping="merge")
        assert cluster.metrics.ops == before

    @pytest.mark.parametrize("grouping", ["aggregate", "sort", "hash"])
    def test_grouping_strategies_same_content(self, cluster, grouping):
        ds = cluster.parallelize(WORDS)
        blocks = make_blocks("token_filtering", ds, lambda r: r["w"], q=2, grouping=grouping).collect()
        merged: dict = {}
        for k, members in blocks:
            merged.setdefault(k, set()).update(r["w"] for r in members)
        assert merged["sm"] == {"smith", "smyth"}

"""Unit tests for the partitioning strategies."""

from enum import IntEnum

import pytest

from repro.engine import (
    Cluster,
    HashPartitioner,
    RangePartitioner,
    RoundRobinPartitioner,
    make_partitioner,
    stable_hash,
)
from repro.engine.partitioner import canonical_key, round_robin_split


class TestStableHash:
    def test_deterministic_for_strings(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_int_passthrough_non_negative(self):
        assert stable_hash(42) == 42
        assert stable_hash(-1) >= 0

    def test_different_values_usually_differ(self):
        values = {stable_hash(f"key{i}") for i in range(100)}
        assert len(values) > 90

    def test_a_str_hash_is_pinned(self):
        # Routing, and with it every simulated column, rides on this value.
        assert stable_hash("abc") == 382731822

    @pytest.mark.parametrize("spellings", [
        (1, 1.0, True),
        (0, 0.0, -0.0, False),
        ((1, "a"), (1.0, "a"), (True, "a")),
    ])
    def test_keys_equal_under_eq_hash_equal(self, spellings):
        assert len({stable_hash(key) for key in spellings}) == 1
        assert len({repr(canonical_key(key)) for key in spellings}) == 1

    def test_an_int_enum_routes_as_its_int(self):
        class Level(IntEnum):
            HIGH = 3

        assert stable_hash(Level.HIGH) == stable_hash(3) == 3

    def test_other_values_are_their_own_canonical_key(self):
        for key in (1.5, "1", None, float("inf"), (1.5, None)):
            assert canonical_key(key) == key and type(canonical_key(key)) is type(key)


class TestHashPartitioner:
    def test_in_range(self):
        p = HashPartitioner(8)
        assert all(0 <= p.partition(f"k{i}") < 8 for i in range(100))

    def test_same_key_same_partition(self):
        p = HashPartitioner(4)
        assert p.partition("x") == p.partition("x")

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestRoundRobinPartitioner:
    def test_even_spread(self):
        p = RoundRobinPartitioner(3)
        targets = [p.partition(None) for _ in range(9)]
        assert targets == [0, 1, 2, 0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("rows", [0, 1, 3, 11], ids=["empty", "one", "fewer", "more"])
def test_parallelize_places_rows_as_round_robin_split(rows):
    """One round-robin rule: the drivers split by ``round_robin_split`` and
    expect the partitions a query's scan gets from ``parallelize``."""
    cluster = Cluster(num_nodes=4)
    items = [{"i": i} for i in range(rows)]
    assert cluster.parallelize(items).partitions == round_robin_split(items, 4)


class TestRangePartitioner:
    def test_routes_by_order(self):
        p = RangePartitioner(4, key_sample=list(range(100)))
        assert p.partition(0) <= p.partition(50) <= p.partition(99)

    def test_all_partitions_used_for_uniform_keys(self):
        p = RangePartitioner(4, key_sample=list(range(1000)))
        used = {p.partition(k) for k in range(1000)}
        assert used == {0, 1, 2, 3}

    def test_hot_key_lands_in_single_partition(self):
        # A single dominant key -> range partitioning sends every copy to
        # one partition: this is the skew sensitivity §8.3 describes.
        sample = [7] * 90 + list(range(10))
        p = RangePartitioner(4, sample)
        targets = {p.partition(7) for _ in range(50)}
        assert len(targets) == 1

    def test_empty_sample(self):
        p = RangePartitioner(4, key_sample=[])
        assert p.partition("anything") == 0

    def test_keys_equal_under_eq_share_a_range(self):
        p = RangePartitioner(4, key_sample=[0, 0.5, 1, 1.5, 2, 2.5, 3, "a"])
        assert len({p.partition(key) for key in (1, 1.0, True)}) == 1

    def test_tuple_and_scalar_keys_share_one_order(self):
        p = RangePartitioner(3, key_sample=[(1, "a"), "b", None, 2, (0.0, None)])
        for key in ((1.0, "a"), "zz", None, 7, (False, None)):
            assert 0 <= p.partition(key) < 3

    def test_mixed_type_keys_do_not_crash(self):
        p = RangePartitioner(3, key_sample=[1, "a", 2, "b"])
        for key in (1, "a", 3.5, "zz"):
            assert 0 <= p.partition(key) < 3


class TestFactory:
    @pytest.mark.parametrize("kind", ["hash", "range", "roundrobin"])
    def test_known_kinds(self, kind):
        assert make_partitioner(kind, 4, key_sample=[1, 2, 3]) is not None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_partitioner("consistent", 4)

"""Unit tests for the RDD-like Dataset API."""

import pytest

from repro.engine import Cluster


@pytest.fixture
def cluster():
    return Cluster(num_nodes=4)


class TestCreationAndActions:
    def test_parallelize_preserves_all_records(self, cluster):
        ds = cluster.parallelize(range(100))
        assert sorted(ds.collect()) == list(range(100))

    def test_parallelize_spreads_over_partitions(self, cluster):
        ds = cluster.parallelize(range(100))
        assert ds.num_partitions == 4
        sizes = [len(p) for p in ds.partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_count(self, cluster):
        assert cluster.parallelize(range(37)).count() == 37

    def test_take_returns_requested_number(self, cluster):
        assert len(cluster.parallelize(range(50)).take(5)) == 5

    def test_take_more_than_available(self, cluster):
        assert len(cluster.parallelize(range(3)).take(10)) == 3

    def test_first_on_empty_raises(self, cluster):
        with pytest.raises(ValueError):
            cluster.empty_dataset().first()

    def test_iteration(self, cluster):
        ds = cluster.parallelize([3, 1, 2])
        assert sorted(ds) == [1, 2, 3]

    def test_empty_parallelize(self, cluster):
        assert cluster.parallelize([]).collect() == []


class TestNarrowOps:
    def test_map(self, cluster):
        ds = cluster.parallelize(range(10)).map(lambda x: x * 2)
        assert sorted(ds.collect()) == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]

    def test_filter(self, cluster):
        ds = cluster.parallelize(range(10)).filter(lambda x: x % 2 == 0)
        assert sorted(ds.collect()) == [0, 2, 4, 6, 8]

    def test_flat_map(self, cluster):
        ds = cluster.parallelize([1, 2]).flat_map(lambda x: [x] * x)
        assert sorted(ds.collect()) == [1, 2, 2]

    def test_map_partitions(self, cluster):
        ds = cluster.parallelize(range(20)).map_partitions(lambda p: [sum(p)])
        assert sum(ds.collect()) == sum(range(20))

    def test_keys_and_values(self, cluster):
        ds = cluster.parallelize([(2, "ab"), (1, "c")])
        assert sorted(ds.values().collect()) == ["ab", "c"]
        assert sorted(ds.keys().collect()) == [1, 2]

    def test_union(self, cluster):
        a = cluster.parallelize([1, 2])
        b = cluster.parallelize([3])
        assert sorted(a.union(b).collect()) == [1, 2, 3]

    def test_union_across_clusters_rejected(self, cluster):
        other = Cluster(num_nodes=2)
        with pytest.raises(ValueError):
            cluster.parallelize([1]).union(other.parallelize([2]))

    def test_sample_deterministic(self, cluster):
        ds = cluster.parallelize(range(1000))
        a = ds.sample(0.1, seed=5).collect()
        b = ds.sample(0.1, seed=5).collect()
        assert a == b
        assert 40 < len(a) < 200

    def test_zip_with_index_assigns_unique_ids(self, cluster):
        ds = cluster.parallelize(["a", "b", "c", "d"]).zip_with_index()
        indices = [i for _, i in ds.collect()]
        assert sorted(indices) == [0, 1, 2, 3]


class TestWideOps:
    def test_group_by_key_groups_all_values(self, cluster):
        ds = cluster.parallelize([(i % 3, i) for i in range(30)])
        grouped = dict(ds.group_by_key().collect())
        assert set(grouped) == {0, 1, 2}
        assert sorted(grouped[0]) == list(range(0, 30, 3))

    @pytest.mark.parametrize("kind", ["sort", "hash"])
    def test_group_by_key_shuffle_kinds_agree(self, cluster, kind):
        ds = cluster.parallelize([(i % 5, i) for i in range(50)])
        grouped = dict(ds.group_by_key(shuffle_kind=kind).collect())
        assert {k: sorted(v) for k, v in grouped.items()} == {
            k: list(range(k, 50, 5)) for k in range(5)
        }

    def test_aggregate_by_key_matches_group_by_key(self, cluster):
        pairs = [(i % 7, i) for i in range(100)]
        agg = dict(
            cluster.parallelize(pairs).aggregate_by_key(
                lambda: 0, lambda a, v: a + v, lambda a, b: a + b
            ).collect()
        )
        grouped = dict(cluster.parallelize(pairs).group_by_key().collect())
        assert agg == {k: sum(v) for k, v in grouped.items()}

    def test_aggregate_by_key_shuffles_fewer_records_when_keys_repeat(self):
        heavy = [(1, i) for i in range(1000)]
        c1 = Cluster(num_nodes=4)
        c1.parallelize(heavy).aggregate_by_key(lambda: 0, lambda a, v: a + 1, lambda a, b: a + b)
        c2 = Cluster(num_nodes=4)
        c2.parallelize(heavy).group_by_key()
        assert c1.metrics.shuffled_records < c2.metrics.shuffled_records / 10

    def test_distinct(self, cluster):
        ds = cluster.parallelize([1, 2, 2, 3, 3, 3])
        assert sorted(ds.distinct().collect()) == [1, 2, 3]


class TestJoins:
    def test_inner_join(self, cluster):
        left = cluster.parallelize([(1, "l1"), (2, "l2")])
        right = cluster.parallelize([(2, "r2"), (3, "r3")])
        assert left.join(right).collect() == [(2, ("l2", "r2"))]

    def test_left_outer_join(self, cluster):
        left = cluster.parallelize([(1, "l1"), (2, "l2")])
        right = cluster.parallelize([(2, "r2")])
        result = dict((k, v) for k, v in left.left_outer_join(right).collect())
        assert result[1] == ("l1", None)
        assert result[2] == ("l2", "r2")

    def test_join_many_to_many(self, cluster):
        left = cluster.parallelize([(1, "a"), (1, "b")])
        right = cluster.parallelize([(1, "x"), (1, "y")])
        assert len(left.join(right).collect()) == 4

    def test_cartesian_produces_all_pairs(self, cluster):
        a = cluster.parallelize([1, 2])
        b = cluster.parallelize(["x", "y", "z"])
        assert len(a.cartesian(b).collect()) == 6

    def test_cartesian_charges_quadratic_shuffle(self, cluster):
        a = cluster.parallelize(range(30))
        b = cluster.parallelize(range(40))
        before = cluster.metrics.shuffled_records
        a.cartesian(b)
        assert cluster.metrics.shuffled_records - before == 1200


class TestLineage:
    """§7: results are associated with the DAG of operations that built them."""

    def test_root_is_scan(self, cluster):
        ds = cluster.parallelize(range(5), name="numbers")
        assert ds.op == "scan:numbers" and ds.parents == ()

    def test_chain_accumulates(self, cluster):
        ds = (
            cluster.parallelize(range(10), name="numbers")
            .map(lambda x: x * 2)
            .filter(lambda x: x > 5)
        )
        assert ds.op == "filter"
        [mapped] = ds.parents
        assert mapped.op == "map" and mapped.parents[0].op == "scan:numbers"

    def test_wide_ops_in_chain(self, cluster):
        ds = cluster.parallelize([(i % 2, i) for i in range(10)]).group_by_key()
        assert ds.op.startswith("groupByKey")

    def test_join_records_other_parent(self, cluster):
        left = cluster.parallelize([(1, "a")], name="left")
        right = cluster.parallelize([(1, "b")], name="right")
        joined = left.join(right)
        assert joined.op == "join"
        assert len(joined.parents) == 2

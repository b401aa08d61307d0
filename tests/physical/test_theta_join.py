"""Unit tests for the three theta-join strategies (§6)."""

import pytest

from repro.engine import Cluster
from repro.errors import BudgetExceededError
from repro.physical import theta_join_cartesian, theta_join_matrix, theta_join_minmax


def records(n):
    return [{"id": i, "v": float(i)} for i in range(n)]


def lt(a, b):
    return a["v"] < b["v"]


@pytest.fixture
def cluster():
    return Cluster(num_nodes=4)


class TestCorrectness:
    def test_matrix_finds_all_pairs(self, cluster):
        left = cluster.parallelize(records(6))
        right = cluster.parallelize(records(6))
        pairs = theta_join_matrix(left, right, lt).collect()
        assert len(pairs) == 15  # C(6,2)

    def test_cartesian_agrees_with_matrix(self):
        c1, c2 = Cluster(num_nodes=4), Cluster(num_nodes=4)
        m = theta_join_matrix(
            c1.parallelize(records(8)), c1.parallelize(records(8)), lt
        ).collect()
        c = theta_join_cartesian(
            c2.parallelize(records(8)), c2.parallelize(records(8)), lt
        ).collect()
        key = lambda pairs: {(a["id"], b["id"]) for a, b in pairs}
        assert key(m) == key(c)

    def test_minmax_agrees_with_matrix(self):
        c1, c2 = Cluster(num_nodes=4), Cluster(num_nodes=4)
        m = theta_join_matrix(
            c1.parallelize(records(8)), c1.parallelize(records(8)), lt
        ).collect()
        mm = theta_join_minmax(
            c2.parallelize(records(8)),
            c2.parallelize(records(8)),
            lt,
            band_key=lambda r: r["v"],
        ).collect()
        key = lambda pairs: {(a["id"], b["id"]) for a, b in pairs}
        assert key(m) == key(mm)

    def test_empty_side_yields_empty(self, cluster):
        left = cluster.parallelize([])
        right = cluster.parallelize(records(5))
        assert theta_join_matrix(left, right, lt).collect() == []


class TestCosts:
    def test_matrix_shuffles_less_than_cartesian(self):
        n = 40
        c_m = Cluster(num_nodes=4)
        theta_join_matrix(c_m.parallelize(records(n)), c_m.parallelize(records(n)), lt)
        c_c = Cluster(num_nodes=4)
        theta_join_cartesian(c_c.parallelize(records(n)), c_c.parallelize(records(n)), lt)
        assert c_m.metrics.shuffled_records < c_c.metrics.shuffled_records

    def test_matrix_work_is_balanced(self, cluster):
        left = cluster.parallelize(records(40))
        right = cluster.parallelize(records(40))
        theta_join_matrix(left, right, lt)
        op = next(o for o in cluster.metrics.ops if o.name == "thetaJoin:matrix")
        assert op.balance > 0.5

    def test_cartesian_exceeds_small_budget(self):
        c = Cluster(num_nodes=4, budget=5_000)
        left = c.parallelize(records(100))
        right = c.parallelize(records(100))
        with pytest.raises(BudgetExceededError):
            theta_join_cartesian(left, right, lt)

    def test_minmax_on_shuffled_data_shuffles_heavily(self):
        # Unaligned partitions overlap fully -> excessive shuffling (§8.3).
        import random

        rows = records(80)
        random.Random(3).shuffle(rows)
        c_mm = Cluster(num_nodes=4)
        theta_join_minmax(
            c_mm.parallelize(rows), c_mm.parallelize(rows), lt, lambda r: r["v"]
        )
        c_m = Cluster(num_nodes=4)
        theta_join_matrix(c_m.parallelize(rows), c_m.parallelize(rows), lt)
        assert c_mm.metrics.simulated_time > c_m.metrics.simulated_time

    def test_comparisons_charged(self, cluster):
        left = cluster.parallelize(records(10))
        right = cluster.parallelize(records(10))
        theta_join_matrix(left, right, lt)
        assert cluster.metrics.comparisons == 100

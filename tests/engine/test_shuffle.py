"""Unit tests for the shuffle layer."""

import pytest

from repro.engine import Cluster
from repro.engine.shuffle import exchange


@pytest.fixture
def cluster():
    return Cluster(num_nodes=4)


def keyed_partitions(n=100, parts=4, keys=10):
    out = [[] for _ in range(parts)]
    for i in range(n):
        out[i % parts].append((i % keys, i))
    return out


class TestShuffle:
    def test_preserves_all_records(self, cluster):
        parts = keyed_partitions()
        new_parts, moved, cost = exchange(cluster, parts, 4, kind="hash")
        assert sum(len(p) for p in new_parts) == 100
        assert moved == 100
        assert cost > 0

    def test_same_key_lands_together(self, cluster):
        parts = keyed_partitions()
        for kind in ("hash", "sort", "local"):
            new_parts, _, _ = exchange(cluster, parts, 4, kind=kind)
            location: dict = {}
            for i, part in enumerate(new_parts):
                for key, _ in part:
                    assert location.setdefault(key, i) == i

    def test_hash_costs_more_than_sort_movement(self, cluster):
        parts = keyed_partitions()
        _, _, sort_cost = exchange(cluster, parts, 4, kind="sort")
        _, _, hash_cost = exchange(cluster, parts, 4, kind="hash")
        # Hash pays the 2.5x factor; sort pays 1.0x + the n·log n CPU term.
        assert hash_cost != sort_cost

    def test_local_kind_uses_combiner_factor(self, cluster):
        parts = keyed_partitions()
        _, _, local_cost = exchange(cluster, parts, 4, kind="local")
        expected = 100 * cluster.cost_model.shuffle_unit * cluster.cost_model.combiner_shuffle_factor
        assert local_cost == pytest.approx(expected)

    def test_sort_kind_has_nlogn_term(self, cluster):
        parts = keyed_partitions()
        _, _, cost = exchange(cluster, parts, 4, kind="sort")
        movement_only = 100 * cluster.cost_model.shuffle_unit
        assert cost > movement_only

    def test_unknown_kind(self, cluster):
        with pytest.raises(ValueError):
            exchange(cluster, keyed_partitions(), 4, kind="broadcast")

    def test_empty_partitions(self, cluster):
        new_parts, moved, cost = exchange(cluster, [[], []], 4, kind="hash")
        assert moved == 0
        assert all(not p for p in new_parts)

    def test_single_target_partition(self, cluster):
        new_parts, _, _ = exchange(cluster, keyed_partitions(), 1, kind="hash")
        assert len(new_parts) == 1 and len(new_parts[0]) == 100

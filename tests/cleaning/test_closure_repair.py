"""Unit tests for transitive closure, fusion, and repair application."""

import pytest

from repro.cleaning import (
    DuplicatePair,
    FDViolation,
    TermRepair,
    UnionFind,
    apply_term_repairs,
    close_pairs,
    elect_representatives,
    entity_clusters,
    fuse_duplicates,
    repair_fd_by_majority,
)


class TestUnionFind:
    def test_separate_then_union(self):
        uf = UnionFind()
        uf.add(1)
        uf.add(2)
        assert uf.find(1) != uf.find(2)
        uf.union(1, 2)
        assert uf.find(1) == uf.find(2)

    def test_transitivity(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.find(1) == uf.find(3)

    def test_groups(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.add("c")
        groups = uf.groups()
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [1, 2]

    def test_idempotent_union(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(1, 2)
        assert len(uf.groups()) == 1


class TestClosePairs:
    def test_chains_close(self):
        clusters = close_pairs([(1, 2), (2, 3), (7, 8)])
        assert sorted(map(tuple, clusters)) == [(1, 2, 3), (7, 8)]

    def test_empty(self):
        assert close_pairs([]) == []

    def test_entity_clusters_from_duplicate_pairs(self):
        pairs = [
            DuplicatePair(0, 1, {}, {}),
            DuplicatePair(1, 2, {}, {}),
        ]
        assert entity_clusters(pairs) == [[0, 1, 2]]


class TestRepresentatives:
    def test_default_smallest_id(self):
        mapping = elect_representatives([[3, 1, 2]], {1: {}, 2: {}, 3: {}})
        assert mapping == {1: 1, 2: 1, 3: 1}

    def test_score_function(self):
        records = {1: {"len": 5}, 2: {"len": 1}}
        mapping = elect_representatives([[1, 2]], records, score=lambda r: r["len"])
        assert mapping[1] == 2


class TestFuseDuplicates:
    def test_keeps_one_per_cluster(self):
        records = [{"_rid": i, "v": i} for i in range(4)]
        pairs = [DuplicatePair(0, 1, records[0], records[1]),
                 DuplicatePair(1, 2, records[1], records[2])]
        fused = fuse_duplicates(records, pairs)
        assert [r["_rid"] for r in fused] == [0, 3]

    def test_no_pairs_identity(self):
        records = [{"_rid": 0}, {"_rid": 1}]
        assert fuse_duplicates(records, []) == records


class TestApplyTermRepairs:
    def test_scalar_attribute(self):
        records = [{"name": "jhon"}, {"name": "mary"}]
        repaired, changed = apply_term_repairs(
            records, "name", [TermRepair("jhon", ("john",))]
        )
        assert changed == 1
        assert repaired[0]["name"] == "john"
        assert repaired[1]["name"] == "mary"

    def test_list_attribute(self):
        records = [{"authors": ["jhon", "mary", "jhon"]}]
        repaired, changed = apply_term_repairs(
            records, "authors", [TermRepair("jhon", ("john",))]
        )
        assert changed == 2
        assert repaired[0]["authors"] == ["john", "mary", "john"]

    def test_repair_without_suggestion_ignored(self):
        records = [{"name": "xx"}]
        repaired, changed = apply_term_repairs(
            records, "name", [TermRepair("xx", ())]
        )
        assert changed == 0 and repaired == records

    def test_originals_not_mutated(self):
        records = [{"name": "jhon"}]
        apply_term_repairs(records, "name", [TermRepair("jhon", ("john",))])
        assert records[0]["name"] == "jhon"


class TestRepairFDByMajority:
    def test_majority_wins(self):
        records = [
            {"k": "a", "v": 1},
            {"k": "a", "v": 1},
            {"k": "a", "v": 2},
            {"k": "b", "v": 9},
        ]
        violations = [FDViolation("a", (1, 2))]
        repaired, changed = repair_fd_by_majority(records, violations, ["k"], "v")
        assert changed == 1
        assert all(r["v"] == 1 for r in repaired if r["k"] == "a")
        assert repaired[3]["v"] == 9  # untouched group

    def test_after_repair_fd_holds(self):
        from repro.cleaning import check_fd
        from repro.engine import Cluster

        records = [{"k": i % 3, "v": (i * 7) % 4} for i in range(30)]
        cluster = Cluster(num_nodes=2)
        violations = check_fd(cluster.parallelize(records), ["k"], ["v"]).collect()
        repaired, _ = repair_fd_by_majority(records, violations, ["k"], "v")
        cluster2 = Cluster(num_nodes=2)
        assert check_fd(cluster2.parallelize(repaired), ["k"], ["v"]).collect() == []

    def test_compound_lhs(self):
        records = [
            {"a": 1, "b": 2, "v": "x"},
            {"a": 1, "b": 2, "v": "y"},
            {"a": 1, "b": 2, "v": "x"},
        ]
        violations = [FDViolation((1, 2), ("x", "y"))]
        repaired, changed = repair_fd_by_majority(records, violations, ["a", "b"], "v")
        assert changed == 1
        assert {r["v"] for r in repaired} == {"x"}

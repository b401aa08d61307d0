"""A warm FD check folds once; it does not run the simulated cluster: counted, not timed.

The row and vectorized FD drivers charge the cluster's combine → route →
merge from the counts of one partition-major pass
(``denial.fd_fold_partitions``) instead of materializing it.  Counted
through wrappers on the engine as the drivers reach it: no
``shuffle._route_partition`` bucket, no ``Dataset.aggregate_by_key``, no
``fd_merge``, and ``stable_hash`` once per combiner start — exactly the
``shuffled_records`` the merge op is charged.  A query's Nest (GROUP BY,
FD, DEDUP) folds the same way on ``aggregate``.  The controls keep the
counters honest: the baseline groupings still go through the partitioned
operators.
"""

from __future__ import annotations

import pytest

import repro.cleaning.denial as denial
import repro.engine.partitioner as partitioner
import repro.engine.shuffle as shuffle
from repro import CleanDB
from repro.cleaning.denial import check_fd
from repro.engine import Cluster
from repro.engine.dataset import Dataset
from repro.physical.lower import PhysicalConfig

NODES = 10
ROWS = 2_000
MERGE_OP = {"row": "fd:aggregate:merge", "vectorized": "fd:vecMerge"}


def table() -> list[dict]:
    return [{"_rid": i, "k": i % 705, "v": i % 4, "g": i % 5} for i in range(ROWS)]


@pytest.fixture
def calls(monkeypatch):
    counts = dict.fromkeys(("route", "aggregate_by_key", "fd_merge", "stable_hash"), 0)

    def counted(owner, attr, name):
        func = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(shuffle, "_route_partition", "route")
    counted(Dataset, "aggregate_by_key", "aggregate_by_key")
    counted(denial, "fd_merge", "fd_merge")
    counted(partitioner, "stable_hash", "stable_hash")
    return counts


@pytest.mark.parametrize("execution", ["row", "vectorized"])
def test_a_session_fd_check_routes_nothing(execution, calls):
    with CleanDB(num_nodes=NODES, execution=execution) as db:
        db.register_table("t", table())
        mark = len(db.cluster.metrics.ops)
        calls.update(dict.fromkeys(calls, 0))
        violations = db.check_fd("t", ["k"], ["v"])
        merge = [op for op in db.cluster.metrics.ops[mark:] if op.name == MERGE_OP[execution]]
    assert violations
    assert len(merge) == 1 and merge[0].shuffled_records > 0
    assert calls == {
        "route": 0,
        "aggregate_by_key": 0,
        "fd_merge": 0,
        "stable_hash": merge[0].shuffled_records,
    }


def test_one_stable_hash_per_combiner_not_per_row(calls):
    """2 000 rows, 705 keys, 10 round-robin partitions: a key's rows sit in
    partitions p, p + 5 and p again, so it starts two combiners — fewer
    hashes than rows, more than keys."""
    cluster = Cluster(NODES)
    dataset = cluster.parallelize(table())
    calls.update(dict.fromkeys(calls, 0))
    check_fd(dataset, ["k"], ["v"])
    (merge,) = [op for op in cluster.metrics.ops if op.name == "fd:aggregate:merge"]
    assert merge.shuffled_records == 2 * 705
    assert calls["stable_hash"] == merge.shuffled_records


@pytest.mark.parametrize("grouping", ["sort", "hash"])
def test_the_baseline_groupings_still_shuffle(grouping, calls):
    cluster = Cluster(NODES)
    dataset = cluster.parallelize(table())
    calls.update(dict.fromkeys(calls, 0))
    assert check_fd(dataset, ["k"], ["v"], grouping=grouping).collect()
    assert calls["route"] == len(dataset.partitions)
    assert calls["fd_merge"] > 0 and calls["aggregate_by_key"] == 0


QUERIES = {
    "group_by": "SELECT t.g, count(t.k) AS n FROM t t GROUP BY t.g",
    "fd": "SELECT * FROM t t FD(t.k, t.v)",
    "dedup": "SELECT * FROM t t DEDUP(exact, LD, 0.5, t.k)",
}


@pytest.mark.parametrize("grouping", ["aggregate", "sort", "hash"])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_a_query_nest_folds_once_and_the_baselines_still_shuffle(query, grouping, calls):
    """On ``aggregate`` the row executor folds a Nest through the pool's
    kernel and charges the cluster from its counts; ``sort`` / ``hash``
    still run ``group_by_key``'s exchange."""
    config = PhysicalConfig(grouping=grouping)
    with CleanDB(num_nodes=NODES, config=config) as db:
        db.register_table("t", table())
        calls.update(dict.fromkeys(calls, 0))
        result = db.execute(QUERIES[query])
        names = [op.name for op in db.cluster.metrics.ops]
    assert result.branches[next(iter(result.branches))]
    if grouping == "aggregate":
        assert calls["aggregate_by_key"] == 0 and calls["route"] == 0
        assert "nest:aggregateByKey:merge" in names
    else:
        assert calls["aggregate_by_key"] == 0 and calls["route"] > 0
        assert f"nest:groupByKey({grouping})" in names

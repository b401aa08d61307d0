"""Hypothesis: an answer is a function of the tuples, not of their layout.

FD, DEDUP and GROUP BY are folds of a monoid over a collection (§4), so
which rows end up in one group cannot depend on how many nodes the
collection is spread over, on which backend folds it, or on the order the
rows arrive in.  Keys that ``==`` merges (``1`` / ``1.0`` / ``True``,
``0`` / ``0.0`` / ``-0.0`` / ``False``, ``(1, "a")`` / ``(1.0, "a")``) are
one key: ``engine.partitioner.canonical_key`` is the one rule every hash
and range route reads, so equal keys always meet in one bucket.

Each example draws a table whose grouping column mixes those spellings and
compares the *canonical answer* of ``check_fd``, ``check_dc``,
``deduplicate(block_on=...)``, ``deduplicate(op="kmeans")`` over a
round-robin and a contiguous layout, and the FD / DEDUP / k-means DEDUP /
GROUP BY queries — keys
and values through ``canonical_key``, pairs as rid pairs, each answer a
multiset — between a reference run (row backend, one node, rows as drawn)
and the same table permuted, at every node count on the row backend under
a drawn grouping strategy (``aggregate``, or the ``sort`` / ``hash``
baselines), and at a drawn node count on the vectorized and parallel
backends.  Which
spelling a merged group reports is the first row's in the partition-major
pass, so it is compared in canonical form only.

NaN stays out of the key domain: ``nan != nan``, and pickling splits one
NaN object into several across workers, so how NaN keys group is a
question of its own, not of layout.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtures import WORKERS
from repro import CleanDB
from repro.cleaning.dedup import deduplicate
from repro.datasets.tpch import generate_customer
from repro.engine.parallel import WorkerPool
from repro.engine.partitioner import canonical_key
from repro.physical.lower import PhysicalConfig

NODES = (1, 2, 3, 8, 10)
KEYS = [1, 1.0, True, -2, -2.0, 0, 0.0, -0.0, False, None, "1", (1, "a"), (1.0, "a")]
ROWS = st.lists(
    st.fixed_dictionaries({
        "k": st.sampled_from(KEYS),
        "v": st.sampled_from([0, 1, 1.0, True, 2, None]),
        "name": st.sampled_from(["ann lee", "anne lee", "bob ray"]),
    }),
    min_size=0,
    max_size=24,
)
DC_RULE = "t1.k == t2.k and t1.v < t2.v"


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(WORKERS) as shared:
        yield shared


KMEANS_SQL = "SELECT * FROM t x DEDUP(kmeans, LD, 0.5, x.name)"


def kmeans_pairs(db, rows, chunking, theta=0.5):
    """``deduplicate(op="kmeans")`` over ``rows`` laid out by ``chunking``,
    with the session's k-means parameters: rid pairs."""
    dataset = db.cluster.parallelize(rows, chunking=chunking)
    params = {"k": db.k, "delta": db.delta, "seed": db.seed}
    pairs = deduplicate(dataset, ["name"], theta=theta, op="kmeans", op_params=params)
    return [(p.left_id, p.right_id) for p in pairs.collect()]


def _values(values) -> frozenset:
    return frozenset(map(canonical_key, values))


def _rids(pair) -> tuple:
    return tuple(sorted(row["_rid"] for row in pair))


def canonical_answers(
    rows, num_nodes, execution="row", pool=None, grouping="aggregate"
) -> dict[str, Counter]:
    """Every check's answer on ``rows``, each a multiset of canonical items."""
    config = PhysicalConfig(grouping=grouping, execution=execution)
    db = CleanDB(num_nodes=num_nodes, config=config, pool=pool)
    try:
        db.register_table("t", [dict(row) for row in rows])
        fd_query = db.execute("SELECT * FROM t x FD(x.k, x.v)").branch("fd1")
        dedup_query = db.execute("SELECT * FROM t x DEDUP(exact, LD, 0.5, x.k)").branch("dedup")
        group_by = db.execute("SELECT x.k, count(x.v) AS n FROM t x GROUP BY x.k").branch("query")
        kmeans_query = db.execute(KMEANS_SQL).branch("dedup")
        return {
            **{
                f"kmeans_{chunking}": Counter(kmeans_pairs(db, rows, chunking))
                for chunking in ("roundrobin", "contiguous")
            },
            "kmeans_query": Counter(_rids((r["p1"], r["p2"])) for r in kmeans_query),
            "check_fd": Counter(
                (canonical_key(v.key), _values(v.rhs_values)) for v in db.check_fd("t", ["k"], ["v"])
            ),
            "check_dc": Counter(_rids(pair) for pair in db.check_dc("t", DC_RULE)),
            "deduplicate": Counter(
                (p.left_id, p.right_id)
                for p in db.deduplicate("t", ["name"], theta=0.5, block_on="k")
            ),
            "fd_query": Counter((canonical_key(r["key"]), _values(r["partition"])) for r in fd_query),
            "dedup_query": Counter(_rids((r["p1"], r["p2"])) for r in dedup_query),
            "group_by": Counter((canonical_key(r["k"]), r["n"]) for r in group_by),
        }
    finally:
        db.close()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=ROWS.map(lambda rows: [dict(row, _rid=i) for i, row in enumerate(rows)]),
    order=st.randoms(use_true_random=False),
    nodes=st.sampled_from(NODES),
    grouping=st.sampled_from(("aggregate", "sort", "hash")),
)
def test_answers_do_not_depend_on_the_layout(pool, rows, order, nodes, grouping):
    expected = canonical_answers(rows, 1)
    permuted = list(rows)
    order.shuffle(permuted)
    for num_nodes in NODES:
        assert canonical_answers(permuted, num_nodes, grouping=grouping) == expected, num_nodes
    assert canonical_answers(permuted, nodes, "vectorized") == expected
    assert canonical_answers(permuted, nodes, "parallel", pool) == expected


def _two_spellings(at: int) -> list[dict]:
    """32 rows of distinct keys, but ``k = 1`` at row 0 and ``k = 1.0`` at
    row ``at``, with different ``v``: one FD violation."""
    rows = [{"k": 100 + i, "v": 0, "name": f"row {i}", "_rid": i} for i in range(32)]
    rows[0]["k"], rows[at]["k"], rows[at]["v"] = 1, 1.0, 1
    return rows


@pytest.mark.parametrize("execution", ("row", "parallel"))
@pytest.mark.parametrize("num_nodes", NODES)
def test_one_key_spelled_two_ways_is_one_group_at_every_node_count(pool, execution, num_nodes):
    """Once the defect: one violation at ``num_nodes`` 1-4, none at 8 or
    10, where ``1`` and ``1.0`` routed to different buckets."""
    answers = canonical_answers(_two_spellings(1), num_nodes, execution, pool)
    assert answers["check_fd"] == answers["fd_query"] == Counter({(1, frozenset({0, 1})): 1})


@pytest.mark.parametrize("execution", ("row", "parallel"))
@pytest.mark.parametrize("at", (1, 8))
def test_where_the_second_spelling_sits_does_not_matter(pool, execution, at):
    """Once the defect: at ``num_nodes=8``, ``1.0`` at row 8 (row 0's
    partition) met ``1`` in the partition's combiner and violated; at row 1
    it routed to another bucket and did not."""
    answers = canonical_answers(_two_spellings(at), 8, execution, pool)
    assert answers["check_fd"] == answers["fd_query"] == Counter({(1, frozenset({0, 1})): 1})


def test_kmeans_centers_do_not_depend_on_the_layout():
    """Once the defect: ``deduplicate(op="kmeans")`` sampled its centers
    from its input's first rows in take order, which is partition-major, and
    the query from the table's first rows, so over the same shuffled
    customers a round-robin layout, a contiguous one and the query answered
    three ways.  Now all three sample the first rows by ``_rid``."""
    rows = generate_customer(num_customers=260, max_duplicates=10, seed=23).records
    random.Random(7).shuffle(rows)
    with CleanDB(num_nodes=10) as db:
        db.register_table("t", rows)
        query = db.execute(KMEANS_SQL.replace("0.5", "0.8")).branch("dedup")
        laid_out = [sorted(kmeans_pairs(db, rows, c, 0.8)) for c in ("roundrobin", "contiguous")]
    assert len(rows) > 200 and laid_out[0]
    assert laid_out[0] == laid_out[1]
    # A pair two overlapping blocks share is one pair (the API verifies it
    # once, in its owning block), and a bag member of each block's answer.
    assert laid_out[0] == sorted({_rids((r["p1"], r["p2"])) for r in query})

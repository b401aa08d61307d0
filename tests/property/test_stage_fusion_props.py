"""Stage fusion: one task per partition must equal its steps run one by one.

A pool *stage* is a chain of narrow steps run back to back by one worker
task (``run_chain``), with a resident exchange's map-side routing as the
chain's tail and its reduce-side merge as the next chain's head.  Two
contracts are pinned here:

* **Equivalence** — for Hypothesis-generated chains of the executor's own
  step functions (bind, filters, map-side combine, exchange, merge, having,
  head) over null-laden rows, the fused tasks return exactly what the same
  functions return composed one at a time in this process, and the per-step
  record counts they report are the intermediate lengths — which is all the
  driver prices a stage from, so the simulated ledger cannot drift.
* **Dispatch counts** — the number of ``WorkerPool.run`` rounds per
  operation is the design: ``check_fd`` 2, a warm ``check_dc`` 1, a warm
  ``deduplicate`` 1, the GROUP BY shape at most 3, a DAG the
  parallel backend cannot claim 0.  Nobody un-fuses a stage silently —
  and none of it passes vacuously: the pool must have dispatched tasks.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import SETTINGS, WORKERS, record_sets, values, with_rids
from repro import CleanDB
from repro.engine import Cluster, WorkerPool
from repro.engine.shuffle import exchange, exchange_resident
from repro.monoid import BagMonoid, BinOp, Const, Proj, SumMonoid, Var
from repro.physical.lower import nest_combine_task, nest_merge_task
from repro.physical.parallel_exec import _bind_task, _filter_task, _head_task
from repro.engine.partitioner import round_robin_split

PARTS = 3
R = Var("r")
AGGREGATES = (("n", SumMonoid(), Const(1)), ("partition", BagMonoid(), R))


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(WORKERS) as shared:
        yield shared


# ---------------------------------------------------------------------- #
# Generated chains
# ---------------------------------------------------------------------- #
comparisons = st.builds(
    lambda attr, op, bound: BinOp(op, Proj(R, attr), Const(bound)),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
    values,
)
filters = st.lists(comparisons, max_size=3)
having = st.one_of(
    st.none(),
    st.builds(
        lambda op, bound: BinOp(op, Proj(Var("g"), "n"), Const(bound)),
        st.sampled_from(["<", ">", "==", "!="]),
        st.integers(min_value=0, max_value=4),
    ),
)


def _filter_steps(predicates):
    return [(_filter_task, (predicate, {})) for predicate in predicates]


def _compose(part, steps):
    """The chain's steps applied one at a time; (output, length after each)."""
    value, counts = part, []
    for func, args in steps:
        value = func(value, *args)
        counts.append(len(value))
    return value, counts


@given(records=record_sets, predicates=filters)
@SETTINGS
def test_narrow_chain_is_its_steps_composed(pool, records, predicates):
    parts = round_robin_split(records, PARTS)
    refs = pool.pin("fusion:narrow", pool.next_version(), parts)
    steps = [
        (_bind_task, ("r",)),
        *_filter_steps(predicates),
        (_head_task, (None, Proj(R, "a"), {})),
    ]
    try:
        before = pool.tasks_dispatched
        out, counts = pool.run_stage(steps, refs)
        assert pool.tasks_dispatched - before == len(parts)  # one task each
    finally:
        pool.evict(refs[0].name, refs[0].version)
    for part, got, row in zip(parts, out, counts):
        expected, lengths = _compose(part, steps)
        assert got == expected
        assert list(row) == [len(part), *lengths]


@given(
    records=record_sets,
    predicates=filters,
    key_attr=st.sampled_from(["a", "b"]),
    group_predicate=having,
)
@SETTINGS
def test_chains_around_an_exchange_are_their_steps_composed(
    pool, records, predicates, key_attr, group_predicate
):
    cluster = Cluster(PARTS)
    parts = round_robin_split(records, PARTS)
    refs = pool.pin("fusion:wide", pool.next_version(), parts)
    before = [
        (_bind_task, ("r",)),
        *_filter_steps(predicates),
        (nest_combine_task, (Proj(R, key_attr), AGGREGATES, {})),
    ]
    after = [
        (nest_merge_task, (AGGREGATES, "g", group_predicate, {})),
        (_head_task, (None, Proj(Var("g"), "key"), {})),
    ]
    try:
        dispatched = pool.tasks_dispatched
        out, moved, cost, mapped, reduced = exchange_resident(
            cluster, pool, refs, PARTS, kind="local", before=before, after=after
        )
        assert pool.tasks_dispatched - dispatched == len(parts) + PARTS
    finally:
        pool.evict(refs[0].name, refs[0].version)

    combined = []
    for part, row in zip(parts, mapped):
        keyed, lengths = _compose(part, before)
        combined.append(keyed)
        assert list(row[:-1]) == [len(part), *lengths]  # last: the route
    buckets, serial_moved, serial_cost = exchange(cluster, combined, PARTS, kind="local")
    assert (moved, cost) == (serial_moved, serial_cost)
    for bucket, got, row in zip(buckets, out, reduced):
        expected, lengths = _compose(bucket, after)
        assert got == expected
        assert list(row[1:]) == [len(bucket), *lengths]


# ---------------------------------------------------------------------- #
# Dispatch-count guard
# ---------------------------------------------------------------------- #
AGG_SQL = "SELECT t.a, count(t.b) AS n FROM t t WHERE t.c > 0 GROUP BY t.a"
#: Two FDs and a DEDUP over one scan: multi-key groupings and unnests the
#: parallel executor cannot claim (only the bare Scan under them used to be).
UNCLAIMED_SQL = (
    "SELECT * FROM t t FD(t.a, prefix(t.s)) FD(t.a, t.b) "
    "DEDUP(exact, LD, 0.5, t.s)"
)


@pytest.fixture()
def counted(monkeypatch):
    """A warm 2-worker session plus ``rounds(call)``: how many
    ``WorkerPool.run`` rounds, tasks and bytes one call costs."""
    rows = with_rids(
        {"a": i % 7, "b": i % 3, "c": i % 5 - 2, "s": f"{i % 7}{i % 4} main st"}
        for i in range(120)
    )
    db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS)
    db.register_table("t", rows)
    calls = []
    real_run = WorkerPool.run

    def counting_run(self, func, *args, **kwargs):
        calls.append(func)
        return real_run(self, func, *args, **kwargs)

    monkeypatch.setattr(WorkerPool, "run", counting_run)

    def rounds(call):
        pool = db.cluster.pool
        n, tasks, shipped = len(calls), pool.tasks_dispatched, pool.bytes_shipped_total
        call()
        return (
            len(calls) - n,
            pool.tasks_dispatched - tasks,
            pool.bytes_shipped_total - shipped,
        )

    yield db, rounds
    db.close()


def test_dispatch_rounds_per_operation(counted):
    db, rounds = counted
    fd = lambda: db.check_fd("t", ["a"], ["b"])  # noqa: E731
    dc = lambda: db.check_dc("t", "t1.a < t2.a and t1.c > t2.c")  # noqa: E731
    dedup = lambda: db.deduplicate("t", ["s"], block_on="a", theta=0.5)  # noqa: E731
    agg = lambda: db.execute(AGG_SQL)  # noqa: E731
    for warm_up in (fd, dc, dedup, agg):
        warm_up()

    fd_rounds, fd_tasks, _ = rounds(fd)
    assert fd_rounds == 2 and fd_tasks > 0
    dc_rounds, dc_tasks, _ = rounds(dc)
    assert dc_rounds == 1 and dc_tasks > 0
    dedup_rounds, dedup_tasks, _ = rounds(dedup)
    assert dedup_rounds == 1 and dedup_tasks > 0
    agg_rounds, agg_tasks, _ = rounds(agg)
    assert 0 < agg_rounds <= 3 and agg_tasks > 0
    assert db.cluster.metrics.degraded_ops == 0  # none of it fell back


def test_unclaimed_dag_dispatches_nothing_and_ships_no_table(counted):
    db, rounds = counted
    db.execute(UNCLAIMED_SQL)
    dag_rounds, dag_tasks, dag_bytes = rounds(lambda: db.execute(UNCLAIMED_SQL))
    assert (dag_rounds, dag_tasks) == (0, 0)
    assert dag_bytes < 4096  # the table is some 10 kB pickled
    # The session is a parallel one all the same.
    assert rounds(lambda: db.check_fd("t", ["a"], ["b"]))[1] > 0

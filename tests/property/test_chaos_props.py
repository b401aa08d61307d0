"""Hypothesis chaos: random fault schedules must be invisible in results.

Each example builds a random :class:`FaultPlan` (kills before/after a task,
hung workers, dropped replies — all keyed by deterministic dispatch counts)
and runs a random interleaving of FD / dedup / DC checks, pool reads and
``append_rows`` deltas against a 2-worker pool carrying two tenants, on an
incremental session or not.  The invariants:

* every check's result is ``repr``-identical to a fault-free cold oracle —
  recovery is transparent, never approximate;
* every pool read finds the table's resident partitions (pinned by a read,
  then patched by the writes) equal to the driver's split of its rows, and
  every example dispatches tasks, so its fault schedule can fire;
* recovery really is recovery: nothing degrades to the row backend
  (``degraded_ops == 0``), so parity can't pass vacuously via fallback;
* the *other* tenant on the shared pool keeps its pins — the exact same
  refs resolve after the chaos, proving ``invalidate_store()`` (which
  would evict every tenant) stayed out of the recovery path.

Faults target generation 0 only, so replacement workers run fault-free:
inject failures, then prove the system heals — the chaos-testing shape the
fault plan's ``gen`` field exists for.
"""

import itertools
import statistics
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtures import make_resident, split_for, values, with_rids
from repro import CleanDB
from repro.engine import FaultPlan, WorkerPool

RULE = "t1.a < t2.a and t1.b > t2.b"

_NAMES = itertools.count()

#: Chaos examples each spawn (and may kill + respawn) worker processes, so
#: the example budget is deliberately small; determinism comes from the
#: plan, not from repetition.
CHAOS_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

plain_row = st.fixed_dictionaries({"a": values, "b": values, "c": values})

#: (worker, kind, nth) triples; ``corrupt`` is exercised separately in
#: tests/engine/test_faults.py — here the schedule mixes the process-level
#: failures that force replacement + lineage rebuild.
fault_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.sampled_from(["kill_before", "kill_after", "delay", "drop"]),
        st.integers(min_value=1, max_value=8),
    ),
    max_size=3,
)

op_sequences = st.lists(
    st.sampled_from(["fd", "dedup", "dc", "append", "read"]), min_size=2, max_size=5
)


def _noop(_part):
    return None


@pytest.fixture(scope="module")
def deadline():
    """The watchdog deadline these pools run under, from this host as it is
    now: fifty times a measured no-op round trip on a throw-away pool, and
    never under the 0.4 s that is ample on an idle host.  A fixed 0.4 s
    declared healthy workers hung whenever the host was busy enough to
    stretch one reply past it, until the retry budget ran out."""
    with WorkerPool(2) as pool:
        trips = []
        for _ in range(21):  # the first ships the function and is left out
            start = time.perf_counter()
            pool.run(_noop, [(0,), (1,)])
            trips.append(time.perf_counter() - start)
    return max(0.4, 50 * statistics.median(trips[1:]))


def _build_plan(schedule, deadline):
    plan = FaultPlan()
    for worker, kind, nth in schedule:
        if kind == "delay":
            # Far beyond the watchdog deadline: a genuinely hung worker.
            plan = plan.delay(worker, nth, seconds=75 * deadline)
        else:
            plan = getattr(plan, kind)(worker, nth)
    return plan


def _run_op(db, name, op):
    if op == "fd":
        return repr(db.check_fd(name, ["a"], ["b"]))
    if op == "dc":
        return repr(db.check_dc(name, RULE))
    return repr(db.deduplicate(name, ["c"], theta=0.5))


@pytest.fixture(scope="module")
def oracle():
    """Fault-free cold oracle (row backend; cross-backend parity is locked
    down by the dedicated parity suites)."""
    db = CleanDB(num_nodes=3)
    yield db
    db.close()


@given(
    records=st.lists(plain_row, min_size=6, max_size=14),
    schedule=fault_schedules,
    ops=op_sequences,
    extra=st.lists(plain_row, min_size=1, max_size=4),
    incremental=st.booleans(),
)
@CHAOS_SETTINGS
def test_random_fault_schedules_are_invisible(
    oracle, deadline, records, schedule, ops, extra, incremental
):
    pool = WorkerPool(2, fault_plan=_build_plan(schedule, deadline), task_deadline=deadline)
    try:
        chaos = CleanDB(
            num_nodes=3, execution="parallel", pool=pool,
            incremental=incremental, namespace="chaos",
        )
        survivor = CleanDB(
            num_nodes=3, execution="parallel", pool=pool, namespace="survivor"
        )
        survivor.register_table(
            "s", with_rids([{"a": i % 3, "b": i % 2, "c": i} for i in range(8)])
        )
        make_resident(survivor, "s")
        skey = survivor.tables.pinned_key("s")
        srefs = pool.pinned(*skey)
        assert srefs is not None
        sparts = repr(pool.fetch(srefs))
        dispatched = pool.tasks_dispatched

        chaos.register_table("t", with_rids(records))
        # A final read: an incremental session may answer every check on the
        # driver, and an example that dispatches no task tests no fault.
        for op in [*ops, "read"]:
            if op == "append":
                chaos.append_rows("t", [dict(r) for r in extra])
                continue
            if op == "read":
                got = pool.fetch(make_resident(chaos, "t"))
                assert got == split_for(chaos.table("t"), chaos.cluster)
                continue
            got = _run_op(chaos, "t", op)
            oname = f"o{next(_NAMES)}"
            oracle.register_table(oname, [dict(r) for r in chaos.table("t")])
            assert got == _run_op(oracle, oname, op)

        # Recovery was real recovery: nothing fell back to the row backend,
        # so the parity above wasn't satisfied vacuously.
        assert chaos.cluster.metrics.degraded_ops == 0
        assert pool.tasks_dispatched > dispatched
        # The surviving tenant's pins were never evicted: the exact refs
        # captured before the chaos still resolve to the same partitions.
        assert pool.pinned(*skey) == srefs
        assert repr(pool.fetch(srefs)) == sparts
    finally:
        pool.shutdown()


def test_a_worker_killed_between_warm_dedups_replays_blocks_and_bags(deadline):
    """On two partitions each worker runs one task per dispatch: a cold
    dedup is three (map, merge, pairs), a warm one a single pairs task.  So
    worker 0 killed before its fifth task dies between the two warm calls;
    its replacement rebuilds the merged blocks from their stage lineage and
    the q-gram bag cache from its broadcast, and the answers and simulated
    ledger are a fault-free run's."""
    rows = with_rids({"k": i % 3, "s": f"{i % 5} main st {i % 2}"} for i in range(24))
    simulated = ("name", "per_node_work", "shuffled_records", "shuffle_cost")

    def three_dedups(plan):
        with WorkerPool(2, fault_plan=plan, task_deadline=deadline) as pool:
            db = CleanDB(num_nodes=2, execution="parallel", pool=pool)
            db.register_table("t", [dict(r) for r in rows])
            out = []
            for _ in range(3):
                mark = len(db.cluster.metrics.ops)
                pairs = repr(db.deduplicate("t", ["s"], block_on="k", theta=0.5))
                ops = [[getattr(op, f) for f in simulated] for op in db.cluster.metrics.ops[mark:]]
                out.append((pairs, ops))
            return out, pool.tasks_dispatched, pool.retries_total, db.cluster.metrics.degraded_ops

    clean, tasks, retries, _ = three_dedups(FaultPlan())
    assert tasks == 2 * (3 + 1 + 1) and retries == 0
    faulted, _, retries, degraded = three_dedups(FaultPlan().kill_before(0, 5))
    assert retries >= 1 and degraded == 0
    assert faulted == clean

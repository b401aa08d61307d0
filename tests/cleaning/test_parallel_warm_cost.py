"""A warm parallel check ships answers, not set-up: counted, not timed.

On a pinned table the second ``deduplicate`` of an ``execution="parallel"``
session is one pool dispatch — ``_pairs_task`` over the merged blocks and
the q-gram bag cache the first call left in the workers — with no exchange
and no broadcast; yet every candidate pair is verified again and the ledger
is charged op for op, value for value, as on the first call and as in a
session that has never seen the table.  A write evicts that state with the
table's old version, and the next call answers for the new table.
"""

import pytest

import repro.cleaning.dedup as dedup_module
from fixtures import WORKERS
from repro import CleanDB
from repro.engine import WorkerPool

NODES = 4
WORDS = ("anderson", "baxter", "carlsson", "dominguez", "eriksen", "fairbanks")
#: The simulated columns of a ledger entry; the measured ones (wall clock,
#: bytes, ships) are what a warm call is allowed to change.
SIMULATED = ("name", "per_node_work", "shuffled_records", "shuffle_cost", "batches", "rows_delta")


def people():
    """Five blocks; block mates sharing a word are near duplicates."""
    return [
        {"_rid": i, "block": i % 5, "name": f"{WORDS[i % 6]} {i % 7}", "street": f"{i % 4} main st"}
        for i in range(120)
    ]


def session():
    return CleanDB(num_nodes=NODES, execution="parallel", workers=WORKERS)


@pytest.fixture
def traffic(monkeypatch):
    """What reaches the pool: the task function of every ``WorkerPool.run``
    round (an exchange is two of them), and the broadcasts and exchanges."""
    seen = {"runs": [], "broadcasts": 0, "exchanges": 0}
    run, broadcast = WorkerPool.run, WorkerPool.broadcast
    exchange = dedup_module.exchange_resident

    def counted_run(self, func, *args, **kwargs):
        seen["runs"].append(getattr(func, "__name__", func))
        return run(self, func, *args, **kwargs)

    def counted_broadcast(self, *args):
        seen["broadcasts"] += 1
        return broadcast(self, *args)

    def counted_exchange(*args, **kwargs):
        seen["exchanges"] += 1
        return exchange(*args, **kwargs)

    monkeypatch.setattr(WorkerPool, "run", counted_run)
    monkeypatch.setattr(WorkerPool, "broadcast", counted_broadcast)
    monkeypatch.setattr(dedup_module, "exchange_resident", counted_exchange)

    def measure(db, call):
        """One call's answer, pool traffic, ledger and pair counters."""
        metrics = db.cluster.metrics
        mark, candidates, verified = len(metrics.ops), metrics.comparisons, metrics.verified
        seen.update(runs=[], broadcasts=0, exchanges=0)
        out = call()
        ops = [{k: v for k, v in vars(op).items() if k in SIMULATED} for op in metrics.ops[mark:]]
        counters = (metrics.comparisons - candidates, metrics.verified - verified)
        return out, dict(seen), ops, counters

    return measure


def dedup(db):
    return db.deduplicate("t", ["name", "street"], block_on="block")


def as_pairs(pairs):
    return [(p.left_id, p.right_id, p.left, p.right) for p in pairs]


def resident(db):
    """The dedup entries of the pool's derived cache."""
    return {k: v for k, v in db.cluster.pool._store._derived.items() if k[0] == "dedup"}


def test_the_second_dedup_of_a_pinned_table_is_one_dispatch(traffic):
    rows = people()
    with session() as db, session() as fresh:
        db.register_table("t", rows)
        first, cold, first_ops, first_counters = traffic(db, lambda: dedup(db))
        assert cold["exchanges"] == 1 and cold["runs"][-1] == "_pairs_task"
        assert cold["broadcasts"] == 1  # the q-gram bag cache, once per q
        (state,) = resident(db).values()
        assert list(state["bags"]) == [3]

        for _ in range(2):
            again, warm, ops, counters = traffic(db, lambda: dedup(db))
            assert warm == {"runs": ["_pairs_task"], "broadcasts": 0, "exchanges": 0}
            # Every candidate pair generated and verified again, every op
            # charged again: the simulated clock does not know it was warm.
            assert ops == first_ops and len(ops) >= 4
            assert counters == first_counters and 0 < counters[1] < counters[0]
            assert as_pairs(again) == as_pairs(first) and first

        fresh.register_table("t", rows)
        other, _, fresh_ops, fresh_counters = traffic(fresh, lambda: dedup(fresh))
        assert (fresh_ops, fresh_counters) == (first_ops, first_counters)
        assert as_pairs(other) == as_pairs(first)
        assert db.cluster.metrics.degraded_ops == 0


@pytest.mark.parametrize("write", ["append", "update"])
def test_a_write_evicts_the_resident_blocks(write, traffic):
    with session() as db, CleanDB(num_nodes=NODES) as row:
        db.register_table("t", people())
        before = dedup(db)
        assert len(resident(db)) == 1
        if write == "append":
            db.append_rows("t", [{"block": 0, "name": "anderson 9", "street": "0 main st"}])
        else:
            db.update_rows("t", {5: {"block": 0, "name": "anderson 0", "street": "0 main st"}})
        assert resident(db) == {}  # evicted with the version it was built on

        after, rebuilt, _, counters = traffic(db, lambda: dedup(db))
        assert rebuilt["exchanges"] == 1 and counters[1] > 0
        assert len(resident(db)) == 1
        row.register_table("t", [dict(r) for r in db.table("t")])
        assert as_pairs(after) == as_pairs(dedup(row)) != as_pairs(before)


"""A write and its re-checks cost O(delta x group), counted not timed.

The incremental states exist so that a 20-row delta against a 20 000-row
table does 20 rows' worth of work.  Every count here is taken through a
wrapper around the call that does the work — key functions, the DC
kernel's probe, the dedup block derivation, the FD key merge, the pool's
dispatch — so the bound holds on any host and a table-sized loop anywhere
on the path fails it by three orders of magnitude.
"""

import weakref

import pytest

import repro.cleaning.denial as denial
import repro.cleaning.incremental as incremental
from fixtures import WORKERS, make_resident
from repro import CleanDB
from repro.cleaning.simjoin import SimJoin

ROWS = 20_000
DELTA = 20
FD_GROUP = 100  # rows per FD key
DC_GROUP = 40  # rows per DC equality group
BLOCK = 4  # rows per dedup block
RULE = "t1.cat == t2.cat and t1.price < t2.price and t1.qty != t2.qty"


def fd_row(i):
    return {"addr": f"a{i % (ROWS // FD_GROUP)}", "nation": i % 7}


def dc_row(i):
    return {"cat": f"c{i % (ROWS // DC_GROUP)}", "price": float(i), "qty": 1 + (i % 1999 == 0)}


def dedup_row(i):
    return {"city": f"c{i // BLOCK}", "name": f"record {i // BLOCK:05d} v{i % BLOCK}"}


TABLES = {"fd": fd_row, "dc": dc_row, "dedup": dedup_row}


class Counter:
    """Wraps a callable; ``weigh`` turns one call into the work it stands for."""

    def __init__(self, func, weigh=lambda *args, **kwargs: 1):
        self.func, self.weigh, self.calls, self.work = func, weigh, 0, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.work += self.weigh(*args, **kwargs)
        return self.func(*args, **kwargs)


def checks(db):
    return (
        db.check_fd("fd", ["addr"], ["nation"]),
        db.check_dc("dc", RULE),
        db.deduplicate("dedup", ["name"], theta=0.9, block_on="city"),
    )


@pytest.fixture(scope="module")
def session():
    db = CleanDB(execution="parallel", workers=WORKERS, incremental=True)
    for name, factory in TABLES.items():
        db.register_table(name, [dict(factory(i), _rid=i) for i in range(ROWS)])
    checks(db)  # builds the three states, which read no pool
    for name in TABLES:
        make_resident(db, name)  # what a pool read pins, so writes patch
    yield db
    db.close()


def state_of(db, table):
    held = db.tables._derived[table].items()
    (only,) = (entry[2] for slot, entry in held if slot[0] in incremental.STATES)
    return only


def writes(db):
    """A 20-row append, then a 20-row update, per table; each as a callable
    so the caller can count around it."""
    for name, factory in TABLES.items():
        base = len(db.table(name))
        fresh = [factory(base + j) for j in range(DELTA)]
        yield lambda name=name, fresh=fresh: db.append_rows(name, fresh)
    for name, factory in TABLES.items():
        # Every 997th row: the updates land in distinct groups and blocks.
        updates = {j * 997: factory(j * 997 + 1) for j in range(DELTA)}
        yield lambda name=name, updates=updates: db.update_rows(name, updates)


def test_a_write_and_its_rechecks_do_delta_sized_work(session, monkeypatch):
    db = session
    fd, dc, dedup = state_of(db, "fd"), state_of(db, "dc"), state_of(db, "dedup")

    def count(owner, attr, weigh=lambda *args, **kwargs: 1):
        counter = Counter(getattr(owner, attr), weigh)
        monkeypatch.setattr(owner, attr, counter)
        return counter

    keys = [count(fd, "lhs_func"), count(fd, "rhs_func"), count(dedup, "key_func")]
    extracted = count(dc, "_extract")
    merged = count(fd, "_merge")
    derived = count(dedup, "_block_pairs", weigh=len)
    # ... verifying only the pairs with a changed member: a pair of two
    # unchanged members keeps its verdict.
    verified = Counter(SimJoin.verify)
    monkeypatch.setattr(SimJoin, "verify", lambda join, a, b: verified(join, a, b))
    # The DC kernel as the state calls it: left entries probed forward and
    # handed to the right-anchored scan (one call, so one sort, per group a
    # delta reaches), index entries built.
    probed = count(incremental, "scan_partition", weigh=lambda lefts, *rest: len(lefts))
    anchored = count(incremental, "scan_right_anchored", weigh=lambda lefts, *rest: len(lefts))
    indexed = count(incremental, "build_dc_index", weigh=lambda entries, plan: len(entries))
    # RULE has one ordered predicate: its plan never depends on the data,
    # so no write re-plans it or rebuilds the state.
    built = count(incremental, "build_dc_state")
    planned = [count(module, "plan_dc_entries") for module in (incremental, denial)]
    pool = db.cluster.pool
    runs = count(pool, "run")
    patches = count(pool, "patch")

    for write in writes(db):
        before = (runs.calls, patches.calls, pool.tasks_dispatched)
        write()
        # One one-way patch per written table: no dispatch, no task.
        assert runs.calls - before[0] == 0
        assert patches.calls - before[1] == 1
        assert pool.tasks_dispatched == before[2]
        checks(db)

    rows = 2 * DELTA  # one append and one update per table
    assert [counter.calls for counter in keys] == [rows] * 3
    assert extracted.calls == rows
    # FD: each changed row touches its old and its new key.
    assert merged.calls <= 2 * rows
    # Dedup: each changed row re-derives its old and its new block.
    assert derived.calls <= 2 * rows
    assert derived.work <= 2 * rows * (BLOCK + DELTA)
    assert 0 < verified.calls <= rows * BLOCK
    # DC: the delta probes as left, one forward scan per write; each group
    # the delta reaches scans its maintained lefts from the delta's side.
    # The 40 changed rows land in 40 distinct groups, each holding at most
    # one appended row; only the delta is ever indexed.
    assert probed.calls == 2
    assert probed.work <= rows
    assert anchored.calls == rows
    assert anchored.work <= rows * (DC_GROUP + 1)
    assert indexed.work == rows
    assert built.calls == 0
    assert [counter.calls for counter in planned] == [0, 0]


def test_a_bulk_write_into_one_group_sorts_its_lefts_once(monkeypatch):
    """200 rows appended to one DC equality group, then updated in it: the
    group's maintained lefts reach the right-anchored scan once per write,
    however many delta rows land there."""
    db = CleanDB(incremental=True)
    try:
        db.register_table("dc", [dict(dc_row(i), _rid=i) for i in range(2000)])
        db.check_dc("dc", RULE)
        anchored = Counter(incremental.scan_right_anchored, weigh=lambda lefts, *rest: len(lefts))
        monkeypatch.setattr(incremental, "scan_right_anchored", anchored)
        # Group "c0" holds rows 0, 500, 1000 and 1500 of the 2 000.
        db.append_rows("dc", [dict(dc_row(i), cat="c0") for i in range(2000, 2200)])
        db.update_rows("dc", {g: dict(dc_row(g + 7), cat="c0") for g in range(2000, 2200)})
        db.cluster.metrics.reset()
        db.check_dc("dc", RULE)
        assert [op.name for op in db.cluster.metrics.ops] == ["incremental:dc:dc"]
        assert (anchored.calls, anchored.work) == (2, 4 + 4)
    finally:
        db.close()


def test_maintained_results_are_served_not_recomputed(session):
    """The guard above is vacuous if the checks fell back cold."""
    db = session
    db.cluster.metrics.reset()
    checks(db)
    names = [op.name for op in db.cluster.metrics.ops]
    assert names == ["incremental:fd:fd", "incremental:dc:dc", "incremental:dedup:dedup"]


def test_a_key_spelled_two_ways_is_served_from_maintained_state(monkeypatch):
    """A write adds ``1.0`` to an FD key and a dedup block that hold ``1``s:
    it joins their group, since ``1 == 1.0`` routes as one key.  The re-
    checks are served from the kept states, re-merging that one key and
    re-deriving that one block, and answer as a cold session does."""
    rows = [{"k": 1 if i < 4 else 100 + i, "v": 0, "name": f"same name {i % 4}"} for i in range(40)]
    db, cold = CleanDB(incremental=True), CleanDB()
    try:
        db.register_table("t", [dict(r, _rid=i) for i, r in enumerate(rows)])

        def rechecks(db):
            return (
                db.check_fd("t", ["k"], ["v"]),
                db.deduplicate("t", ["name"], theta=0.5, block_on="k"),
            )

        def states():
            held = db.tables._derived["t"].items()
            return [entry[2] for slot, entry in held if slot[0] in incremental.STATES]

        rechecks(db)
        fd, dedup = states()
        merged = Counter(fd._merge)
        derived = Counter(dedup._block_pairs, weigh=len)
        monkeypatch.setattr(fd, "_merge", merged)
        monkeypatch.setattr(dedup, "_block_pairs", derived)
        db.append_rows("t", [{"k": 1.0, "v": 1, "name": "same name 0"}])
        db.cluster.metrics.reset()
        violations, pairs = answer = rechecks(db)
        assert [op.name for op in db.cluster.metrics.ops] == ["incremental:fd:t", "incremental:dedup:t"]
        assert states() == [fd, dedup]  # kept, not dropped for a cold rerun
        assert (merged.calls, derived.calls, derived.work) == (1, 1, 5)
        assert [(v.key, v.rhs_values) for v in violations] == [(1, (0, 1))]
        assert sum(40 in (p.left_id, p.right_id) for p in pairs) == 4
        cold.register_table("t", [dict(r) for r in db.table("t")])
        assert repr(answer) == repr(rechecks(cold))
    finally:
        db.close()
        cold.close()


def test_dedup_caches_plateau_under_a_long_update_stream(monkeypatch):
    """1 000 updates cycling over the same 20 rows: every 40 updates the
    table is back where it was, and so must the state be — its block
    index, per-row keys, block pairs and rids.  Nothing per text outlives
    an emit: each builds its own join, whose gram pool dies with it."""
    joins = []

    def tracked(*args, **kwargs):
        join = SimJoin(*args, **kwargs)
        joins.append(weakref.ref(join))
        return join

    monkeypatch.setattr(incremental, "SimJoin", tracked)
    rows = [dict(dedup_row(i), _rid=i) for i in range(200)]
    db = CleanDB(incremental=True)
    try:
        db.register_table("t", [dict(r) for r in rows])

        def dedup():
            return db.deduplicate("t", ["name"], theta=0.9, block_on="city")

        dedup()
        state = state_of(db, "t")
        sizes = []
        for t in range(1000):
            rid = (t % 20) * 10
            moved = dedup_row(rid + BLOCK)  # the neighbouring block's shape
            db.update_rows("t", {rid: moved if (t // 20) % 2 == 0 else rows[rid]})
            got = dedup()
            assert state._join is None and not state._changed
            assert joins and not any(ref() for ref in joins)
            if t % 40 == 39:
                sizes.append(
                    (len(state.blocks), len(state.keys), len(state.block_cache), len(state._rids))
                )
        assert state_of(db, "t") is state  # never dropped for a cold rebuild
        assert len(set(sizes)) == 1, sizes
        assert sizes[0][1] == len(rows)
        cold = CleanDB()
        cold.register_table("t", [dict(r) for r in db.table("t")])
        assert repr(got) == repr(cold.deduplicate("t", ["name"], theta=0.9, block_on="city"))
    finally:
        db.close()

"""The table store behind the facade: a failing write changes nothing.

``update_rows`` used to replace rows rid by rid and only then discover an
unknown rid or a non-dict replacement, so a failing call left earlier rows
replaced *without* a version bump, delta shipment or mirror update — the
session then served stale answers.  The whole mapping is validated first
now; these tests hold every kind of session to "a raise is a no-op".
"""

import copy
import gc
import types
import weakref
from collections import Counter

import pytest

from fixtures import make_resident
from repro import CleanDB
from repro.core import language
from repro.core.tables import TableStore
from repro.datasets import generate_customer, generate_lineitem
from repro.engine import Cluster, WorkerPool
from repro.errors import SchemaError
from repro.monoid import expressions
from repro.physical.lower import Executor

RULE = "t1.a = t2.a and t1.price < t2.price and t1.disc > t2.disc"

SESSIONS = {
    "row": {},
    "parallel": {"execution": "parallel", "workers": 2},
    "incremental": {"execution": "parallel", "workers": 2, "incremental": True},
    "incremental-row": {"incremental": True},
}


def rows():
    """Every FD key a -> b is violated by exactly one early row, so fixing
    row 0 changes the answer: a stale session keeps reporting key 0."""
    return [
        {"a": i % 3, "b": (5 + i) if i < 3 else 0, "name": f"name {i % 4}",
         "price": float(i), "disc": float(12 - i)}
        for i in range(12)
    ]


def answers(db):
    return (
        sorted(v.key for v in db.check_fd("t", ["a"], ["b"])),
        sorted((p["_rid"], q["_rid"]) for p, q in db.check_dc("t", RULE)),
        sorted(repr(pair) for pair in db.deduplicate("t", ["name"], block_on="a")),
    )


@pytest.mark.parametrize("kind", SESSIONS)
@pytest.mark.parametrize("bad", ["unknown rid", "non-dict row"])
def test_a_failing_update_leaves_the_session_untouched(kind, bad):
    with CleanDB(num_nodes=2, **SESSIONS[kind]) as db:
        db.register_table("t", rows())
        warm = answers(db)  # builds the mirror states on incremental sessions
        assert warm[0] == [0, 1, 2]
        store = db.tables
        if store.parallel:  # an incremental session's checks read no pool
            make_resident(db, "t")
        rid0 = db.table("t")[0]["_rid"]
        fixed = {"a": 0, "b": 0, "name": "x", "price": 1.0, "disc": 1.0}
        update = {rid0: fixed, "nope": dict(fixed)} if bad == "unknown rid" else {
            rid0: fixed, db.table("t")[1]["_rid"]: "not a row",
        }

        before_rows = copy.deepcopy(db.table("t"))
        version = store.versions["t"]
        key = store.pinned_key("t")
        refs = db.cluster.pool.pinned(*key) if key else None
        held = dict(store._derived["t"])  # maintained states included, where kept

        with pytest.raises(SchemaError):
            db.update_rows("t", update)

        assert db.table("t") == before_rows
        assert store.versions["t"] == version
        assert store.pinned_key("t") == key
        if key:
            assert db.cluster.pool.pinned(*key) == refs
            assert db.cluster.pool.fetch(refs) == [before_rows[0::2], before_rows[1::2]]
        assert {slot: store._derived["t"].get(slot) for slot in held} == held

        with CleanDB(num_nodes=2) as cold:
            cold.register_table("t", db.table("t"))
            assert answers(db) == answers(cold) == warm

        # The same mapping without the bad entry still applies, and lands.
        db.update_rows("t", {rid0: fixed})
        assert store.versions["t"] == version + 1
        with CleanDB(num_nodes=2) as cold:
            cold.register_table("t", db.table("t"))
            after = answers(db)
            assert after == answers(cold)
            assert after[0] == [1, 2]


def test_an_empty_write_is_a_no_op():
    with CleanDB(num_nodes=2) as db:
        db.register_table("t", rows())
        version = db.tables.versions["t"]
        db.append_rows("t", [])
        db.update_rows("t", {})
        assert db.tables.versions["t"] == version


def test_a_closed_session_leaves_nothing_for_the_cycle_collector():
    """Table-sized state left to a later full collection makes the memory a
    run of sessions holds depend on where those fall.  Every derived entry —
    the maintained states, the rid index, a row session's DC state (one
    ``DCRecord`` per row) and dedup bag cache (one bag per distinct term) —
    is dead by reference count when ``close()`` returns, and the store's
    one map is empty."""
    gc.collect()
    gc.disable()
    try:
        db = CleanDB(num_nodes=2, execution="parallel", workers=2, incremental=True)
        db.register_table("t", rows())
        answers(db)
        db.append_rows("t", [{"a": 1, "b": 7, "name": "x", "price": 1.0, "disc": 1.0}])
        assert answers(db) == answers(db)  # maintained twice over
        db.update_rows("t", {0: dict(FIXED)})  # builds the rid index
        before = answers(db)
        held = db.tables._derived["t"]
        assert {slot[0] for slot in held} == {"fd", "dc", "dedup", "info", "rids"}
        gone = [weakref.ref(entry[2]) for slot, entry in held.items() if slot[0] != "rids"]
        del held
        db.close()
        assert [ref() for ref in gone] == [None] * 4 and not db.tables._derived
        assert answers(db) == before  # still usable: rebuilt on demand
        db.refresh_table("t")  # drops the rebuilt states the same way
        assert not db.tables._derived.get("t")
        db.close()
        del db

        row = CleanDB(num_nodes=2)
        row.register_table("t", rows())
        before = answers(row)
        # The plan stands for the DC entry: tuples and dicts take no weak
        # reference, and it dies only with the tuple that holds the index.
        # Dedup's bag cache is a dict subclass, which does.
        held = row.tables._derived["t"]
        assert held["bags"][2]
        gone = [weakref.ref(held["dc"][2][0]), weakref.ref(held["bags"][2])]
        del held
        assert all(ref() is not None for ref in gone)
        row.close()
        assert [ref() for ref in gone] == [None, None] and not row.tables._derived
        assert answers(row) == before
        row.close()
        del row
        assert gc.collect() == 0
    finally:
        gc.enable()


# The bench's unified (Fig. 5) and GROUP BY queries (bench/workloads.py).
UNIFIED_SQL = (
    "SELECT * FROM customer c "
    "FD(c.address, prefix(c.phone)) FD(c.address, c.nationkey) "
    "DEDUP(exact, LD, 0.5, c.address)"
)
AGG_SQL = (
    "SELECT l.suppkey, count(l.orderkey) AS n FROM lineitem l "
    "WHERE l.discount > 0.05 GROUP BY l.suppkey"
)


def _left_to_the_collector(execution, sql, monkeypatch):
    """What one ``execute`` leaves behind that only a collector pass frees,
    and whether the query's ``Executor`` died with the call."""
    executors = []

    class Watched(Executor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            executors.append(weakref.ref(self))

    monkeypatch.setattr(language, "Executor", Watched)
    options = {"execution": "parallel", "workers": 2} if execution == "parallel" else {}
    with CleanDB(num_nodes=4, **options) as db:
        db.register_table("customer", generate_customer(num_customers=300, seed=23).records)
        db.register_table("lineitem", generate_lineitem(4))
        assert db.execute(sql).branches  # warm: pool forked, functions shipped
        gc.collect()
        result = db.execute(sql)
        assert [ref() for ref in executors] == [None, None]
        assert any(result.branches.values())
        if execution == "parallel" and sql is AGG_SQL:  # the pool claims no part of the other
            assert any(":par" in op.name for op in db.cluster.metrics.ops)
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


@pytest.mark.parametrize("sql", [UNIFIED_SQL, AGG_SQL], ids=["unified", "agg"])
def test_a_querys_temporaries_die_by_reference_count(sql, monkeypatch):
    """``execute`` runs with the collector paused, so what a query builds
    must not wait for it: the executor and its backend (no back pointer), the
    per-query functions with their record cache, the ship log and every
    row-shaped intermediate are gone when the call returns.  What is left is
    one ``node <-> run`` pair per compiled expression — ``compiled()`` caches
    the function on the node its fallback interprets; it holds no data — and
    a parallel session leaves exactly what a row session leaves."""
    gc.collect()
    gc.disable()
    try:
        left = {ex: _left_to_the_collector(ex, sql, monkeypatch) for ex in ("row", "parallel")}
    finally:
        gc.enable()
    nodes = {cls.__name__ for cls in expressions.Expr.__subclasses__()}
    for execution, garbage in left.items():
        names = {type(obj).__name__ for obj in garbage}
        assert names <= nodes | {"function", "cell", "tuple", "dict"}, (execution, names)
        functions = [obj for obj in garbage if isinstance(obj, types.FunctionType)]
        assert {f.__qualname__ for f in functions} <= {"build.<locals>.run"}
        assert not any(isinstance(obj, dict) and "_rid" in obj for obj in garbage)
    # A node's ``__dict__`` becomes an object of its own once something reads
    # it (the shippability probe pickles every node): not counted.
    counted = {
        ex: Counter(type(obj).__name__ for obj in garbage if type(obj) is not dict)
        for ex, garbage in left.items()
    }
    if sql is UNIFIED_SQL:  # not claimable by the pool: the driver compiles it either way
        # 11: the DEDUP pair loop compiles its group path once and the
        # predicate's residual, not both unnest paths and the whole predicate.
        assert counted["parallel"] == counted["row"] and counted["row"]["function"] == 11
    else:  # claimed in full: the driver compiles nothing
        assert counted["row"]["function"] == 4 and not counted["parallel"]


# -- TableStore.derived: build / reuse / drop ----------------------------- #

FIXED = {"a": 0, "b": 0, "name": "x", "price": 1.0, "disc": 1.0}
BUMPS = {
    "append_rows": lambda db: db.append_rows("t", [dict(FIXED)]),
    "update_rows": lambda db: db.update_rows("t", {db.table("t")[0]["_rid"]: FIXED}),
    "repair_dc": lambda db: db.repair_dc("t", RULE),
    "refresh_table": lambda db: db.refresh_table("t"),
    "re-registration": lambda db: db.register_table("t", rows()),
    "unpin": lambda db: db.tables.unpin("t"),
    "close": lambda db: db.close(),
}


@pytest.mark.parametrize("bump", BUMPS)
def test_derived_state_is_built_once_reused_and_dropped_with_the_version(bump):
    """The drop / patch matrix.  Every whole-table bump drops entries with
    and without a patch rule; a delta keeps and restamps the first kind —
    its patch called once with the delta, its build not again — and drops
    the second; a patch that raises drops only its own entry."""
    with CleanDB(num_nodes=2) as db:
        db.register_table("t", rows())
        builds, patches = [], []

        def build(kind):
            def run():
                builds.append((kind, len(db.table("t"))))
                return [kind]
            return run

        def patch(state, base, appended, updated):
            patches.append((state[0], base, list(appended), list(updated)))
            if state[0] == "broken":
                raise RuntimeError("broken state == no state")
            return state

        def ask():
            return [
                db.tables.derived("t", ("plain", 1), build("plain")),
                db.tables.derived("t", ("patched", 1), build("patched"), patch),
                db.tables.derived("t", ("broken", 1), build("broken"), patch),
            ]

        first = ask()
        assert all(a is b for a, b in zip(ask(), first)) and len(builds) == 3
        BUMPS[bump](db)
        held = db.tables._derived.get("t", {})  # dropped there and then, not at next use
        is_delta = bump in ("append_rows", "update_rows")
        if is_delta:
            table = db.table("t")
            assert set(held) - {("rids",)} == {("patched", 1)}  # update_rows' own entry
            assert held[("patched", 1)][0] == (db.tables.versions["t"], len(table))
            delta = (12, [table[12]], []) if bump == "append_rows" else (12, [], [(0, table[0])])
            assert patches == [("patched", *delta), ("broken", *delta)]
        else:
            assert not held and not patches
        after = ask()
        assert [a is b for a, b in zip(after, first)] == [False, is_delta, False]
        assert len(patches) == 2 * is_delta  # asking again patches nothing
        rebuilt = sorted(kind for kind, _ in builds[3:])
        assert rebuilt == (["broken", "plain"] if is_delta else ["broken", "patched", "plain"])
        assert {size for _, size in builds[3:]} == {len(db.table("t"))}


def _cold_answers(db):
    with CleanDB(num_nodes=2) as cold:
        cold.register_table("t", [dict(row) for row in db.table("t")])
        return answers(cold)


GROWN = {"a": 0, "b": 9, "name": "name 0", "price": 99.0, "disc": -1.0, "_rid": 12}


@pytest.mark.parametrize("kind", SESSIONS)
def test_a_length_changing_in_place_edit_is_caught_on_every_session(kind):
    """One stamp rule for every derived entry: a row appended to the
    registered list behind the store's back changes the next answer on
    every kind of session, and the delta after it patches nothing stale."""
    with CleanDB(num_nodes=2, **SESSIONS[kind]) as db:
        db.register_table("t", rows())
        warm = answers(db)
        db.table("t").append(dict(GROWN))  # no write method, no refresh
        grown = answers(db)
        assert grown == _cold_answers(db) != warm
        db.append_rows("t", [{**GROWN, "_rid": 13, "price": 100.0, "disc": -2.0}])
        assert answers(db) == _cold_answers(db) != grown


@pytest.mark.parametrize("kind", SESSIONS)
def test_update_rows_reaches_a_row_appended_in_place(kind):
    with CleanDB(num_nodes=2, **SESSIONS[kind]) as db:
        db.register_table("t", rows())
        db.update_rows("t", {0: dict(FIXED)})  # builds the rid index
        warm = answers(db)
        db.table("t").append(dict(GROWN))
        db.update_rows("t", {12: {**GROWN, "price": 0.5}})
        assert db.table("t")[12]["price"] == 0.5
        assert answers(db) == _cold_answers(db) != warm


def test_a_length_changing_in_place_edit_is_caught_by_the_stamp():
    with CleanDB(num_nodes=2) as db:
        db.register_table("t", rows())
        before = db.check_dc("t", RULE)
        state = db.tables._derived["t"]["dc"]
        assert db.check_dc("t", RULE) == before and db.tables._derived["t"]["dc"] is state
        del db.table("t")[6:]  # no write method, no refresh: same version, new length
        with CleanDB(num_nodes=2) as cold:
            cold.register_table("t", db.table("t"))
            assert db.check_dc("t", RULE) == cold.check_dc("t", RULE) != before
        assert db.tables._derived["t"]["dc"] is not state


def test_an_unhashable_key_never_caches():
    store = TableStore(Cluster(num_nodes=2))
    store.register("t", rows())
    built = [store.derived("t", ("probe", [1]), object) for _ in range(2)]
    assert built[0] is not built[1]
    assert "probe" not in store._derived.get("t", {})


def test_a_second_distinct_constraint_replaces_the_first():
    """One entry per table and kind of question: a session sweeping many
    constraints holds one DC state per table, not one per constraint."""
    other = "t1.a = t2.a and t1.price > t2.price and t1.disc < t2.disc"
    with CleanDB(num_nodes=2) as db:
        db.register_table("t", rows())
        first = db.check_dc("t", RULE)
        held = db.tables._derived["t"]
        plan = weakref.ref(held["dc"][2][0])
        db.check_dc("t", other)
        assert set(held) == {("info",), "dc"}  # the schema the rule strings were checked against
        assert held["dc"][1][1].predicates[1].op == ">"
        assert plan() is None  # the first state is gone, not parked
        assert db.check_dc("t", RULE) == first  # and comes back by rebuilding


def test_refresh_table_makes_in_place_edits_visible_on_a_row_session():
    """The row-session twin of ``tests/integration/test_handle_parity.py``'s
    parallel test: every session reads a snapshot taken at the table's
    version, and ``refresh_table()`` is the coherence point."""
    rule = "t1.price < t2.price and t1.disc > t2.disc"
    with CleanDB(num_nodes=2) as db:
        db.register_table("t", rows())
        before = db.check_dc("t", rule)
        assert before
        for row in db.table("t"):
            row["disc"] = 1.0  # repair every row in place
        assert len(db.check_dc("t", rule)) == len(before)  # the snapshot answers
        db.refresh_table("t")
        assert db.check_dc("t", rule) == []


def test_only_a_pool_read_pins_and_a_write_patches_only_a_resident_table(monkeypatch):
    """Residency is a read cache.  An incremental session answers its checks
    on the driver, so registering, checking and writing its table send the
    workers of a live pool nothing: no pin, no patch, not even an eviction.
    After one pool read, the next write patches the resident version in
    one delta, and only the current version stays pinned."""
    shipped = []
    ship = WorkerPool._ship

    def spy(pool, worker, command, *rest):
        shipped.append(command[0])
        return ship(pool, worker, command, *rest)

    monkeypatch.setattr(WorkerPool, "_ship", spy)
    with CleanDB(num_nodes=2, **SESSIONS["incremental"]) as db:
        pool = db.cluster.pool  # live before anything is registered
        db.register_table("t", rows())
        answers(db)
        db.append_rows("t", [dict(FIXED)])
        db.update_rows("t", {0: dict(FIXED)})
        answers(db)
        names = [op.name for op in db.cluster.metrics.ops]
        assert shipped == [] and pool.bytes_shipped_total == 0
        assert not [name for name in names if name.startswith(("pin:", "delta:"))]

        make_resident(db, "t")
        mark = len(db.cluster.metrics.ops)
        db.append_rows("t", [dict(FIXED), dict(FIXED)])
        (delta,) = [op for op in db.cluster.metrics.ops[mark:] if op.name.startswith("delta:")]
        assert (delta.name, delta.rows_delta) == ("delta:t", 2)
        assert pool.pinned_versions("table:t") == [db.tables.versions["t"]]
        assert "patch" in shipped


def test_the_first_pool_read_of_a_table_sends_no_eviction(monkeypatch):
    """A cold table's first pool read pins it under its identity; the
    registry holds nothing there yet, so no ``evict`` goes ahead of the
    pins — each would be a write of its own."""
    shipped = []
    ship = WorkerPool._ship

    def spy(pool, worker, command, *rest):
        shipped.append(command[:3])
        return ship(pool, worker, command, *rest)

    monkeypatch.setattr(WorkerPool, "_ship", spy)
    with CleanDB(num_nodes=2, **SESSIONS["parallel"]) as db:
        db.register_table("t", rows())
        assert sorted(v.key for v in db.check_fd("t", ["a"], ["b"])) == [0, 1, 2]
        kinds = [command[0] for command in shipped]
        assert "evict" not in kinds, shipped
        assert ("pin", "table:t", 1) in shipped and "tasks" in kinds


def test_pinned_bytes_grow_with_every_append():
    """A delta patch's version used to carry the largest byte count of any
    pinned version of the table, so appends never grew it and the serving
    layer's store-bytes governor saw a quarter of a table four times its
    first size.  The patched version counts its base's bytes plus the
    patch bytes shipped, which stays close to a fresh pin of the same rows."""
    def batch(start):
        return [{"k": i, "name": f"name {i % 97}", "price": float(i)}
                for i in range(start, start + 2000)]

    with CleanDB(num_nodes=2, execution="parallel", workers=2) as db:
        db.register_table("t", batch(0))
        make_resident(db, "t")
        sizes = [db.pinned_table_bytes("t")]
        for start in (2000, 4000, 6000):
            db.append_rows("t", batch(start))
            sizes.append(db.pinned_table_bytes("t"))
        db.refresh_table("t")
        make_resident(db, "t")  # a full re-pin measures the same 8 000 rows
        repinned = db.pinned_table_bytes("t")
    assert sizes[0] > 0
    assert all(after > before for before, after in zip(sizes, sizes[1:])), sizes
    assert sizes[-1] >= 0.8 * repinned, (sizes, repinned)


class TestTableStore:
    def test_names_in_registration_order(self):
        store = TableStore(Cluster(num_nodes=2))
        store.register("b", [1, 2])
        store.register("a", [{"x": 1}])
        assert store.names() == ["b", "a"]
        assert "a" in store and "c" not in store
        assert store.get("a")[0]["_rid"] == 0
        with pytest.raises(SchemaError, match="unknown table 'c'"):
            store.get("c")

    def test_a_driver_only_store_pins_nothing(self):
        cluster = Cluster(num_nodes=2)
        store = TableStore(cluster, incremental=True)
        store.register("t", rows())
        store.append("t", [{"a": 9, "b": 9}])
        store.update("t", {0: {"a": 8}})
        store.unpin("t")
        store.release()
        assert store.versions["t"] == 3
        assert store.pinned_key("t") is None and store.pinned_map() == {}
        assert store.pinned_bytes("t") == 0
        assert not cluster.has_pool  # nothing above reached for a pool

    def test_the_pin_identity_is_tenant_qualified(self):
        store = TableStore(Cluster(num_nodes=2), namespace="acme", parallel=True)
        store.versions["t"] = 4  # identity only: nothing is pinned here
        assert store.pinned_key("t") == ("acme/table:t", 4)
        assert store.pinned_map() == {"t": ("acme/table:t", 4)}
        with pytest.raises(ValueError, match="must not contain '/'"):
            TableStore(Cluster(num_nodes=2), namespace="a/b")

    def test_schema_info_is_cached_per_version(self):
        store = TableStore(Cluster(num_nodes=2))
        store.register("t", [{"x": 1}])
        first = store.info("t")
        assert store.info("t") is first
        store.append("t", [{"x": 2, "y": "new"}])
        assert store.info("t") is not first

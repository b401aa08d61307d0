"""Hypothesis: incremental maintenance equals a cold re-run, byte for byte.

``append_rows``/``update_rows`` patch resident per-operation state (FD
violation maps, dedup blocks, DC group index) instead of rescanning.  That
is a pure transport/CPU optimisation: after *any* interleaving of deltas
and checks, the emitted result must be ``repr``-identical to registering
the post-delta table in a fresh session and checking cold — on the row,
vectorized, and parallel backends alike.  The generators bias toward the
hard cases: null-laden rows, duplicate ``_rid`` collisions and keys
spelled two ways (``1`` / ``1.0`` / ``True``) — one key, which the
maintained states and the cold path both group as one — empty deltas, and
updates that resolve pre-existing violations.  Because each ``emit``
patches the previous one, stale caches are the main risk: checks
run between some deltas and not others, every maintained result is asked
for twice with the first answer emptied by its caller, and rows move
between FD keys, DC equality groups and dedup blocks, emptying some.
"""

import hashlib
import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import SETTINGS, WORKERS, make_resident, record_sets, values, with_rids
from repro import CleanDB

BACKENDS = ("row", "vectorized", "parallel")
RULE = "t1.a < t2.a and t1.b > t2.b"
#: ... and one with an equality prefix, so updates move rows across groups.
RULES = (RULE, "t1.c == t2.c and t1.a < t2.a and t1.b != t2.b")

_NAMES = itertools.count()

plain_row = st.fixed_dictionaries({"a": values, "b": values, "c": values})
# Keys spelled more than one way (``1 == 1.0 == True``, ``-2 == -2.0``) in
# the columns FD and dedup group on, each spelling of a key one group; the
# shared ``values`` stay plain.
spelled = st.one_of(values, st.sampled_from([1.0, -2.0, True, False]))
spelled_row = st.fixed_dictionaries({"a": spelled, "b": values, "c": spelled})


def _deltas(row):
    """(kind, payload, whether a check follows this delta): two deltas with
    no check between them must patch as well as two with one."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.lists(row, max_size=4), st.booleans()),
            st.tuples(
                st.just("update"),
                st.lists(
                    st.tuples(st.integers(min_value=0, max_value=30), row),
                    max_size=3,
                ),
                st.booleans(),
            ),
            # A row appended to the registered list itself, no store call:
            # the stamp must notice, and the next real delta must patch
            # nothing stale.
            st.tuples(st.just("grow"), row, st.booleans()),
        ),
        min_size=1,
        max_size=4,
    )


# Half the examples spell keys two ways, so the maintained FD and dedup
# states merge two spellings of one key into one group as the cold path
# does; the other half keep to one spelling per key.
deltas = st.sampled_from([plain_row, spelled_row]).flatmap(_deltas)


@pytest.fixture(scope="module", params=BACKENDS)
def dbs(request):
    """One incremental session + one cold-oracle session per backend.

    Sessions are module-scoped (worker-process spawn is too costly per
    Hypothesis example); isolation comes from a fresh table name per use.
    """
    kwargs = dict(num_nodes=3, execution=request.param)
    if request.param == "parallel":
        kwargs["workers"] = WORKERS
    db = CleanDB(incremental=True, **kwargs)
    oracle = CleanDB(**kwargs)
    yield db, oracle
    db.close()
    oracle.close()


def _check_all(db, name, block_on, again=False):
    """Every check's result, as reprs.  With ``again`` each is asked for
    twice and the first answer emptied in between: the caller owns the list
    it gets, so what it does to it must not reach the next emit."""
    def results():
        return [
            db.check_fd(name, ["a"], ["b"]),
            db.check_fd(name, ["a"], ["b"], keep_records=False),
            *(db.check_dc(name, rule) for rule in RULES),
            db.deduplicate(name, ["c"], theta=0.5, block_on=block_on),
        ]

    first = results()
    shown = tuple(map(repr, first))
    if again:
        for result in first:
            result.clear()
        assert tuple(map(repr, results())) == shown
    return shown


def _matches_cold(db, oracle, name, block_on):
    oname = f"o{next(_NAMES)}"
    oracle.register_table(oname, [dict(r) for r in db.table(name)])
    return _check_all(db, name, block_on, again=True) == _check_all(oracle, oname, block_on)


def _apply(db, name, kind, payload, collide):
    if kind == "append":
        rows = [dict(r) for r in payload]
        if collide and rows and len(db.table(name)):
            rows[0]["_rid"] = db.table(name)[0]["_rid"]  # duplicate rid
        db.append_rows(name, rows)
        return
    table = db.table(name)
    if kind == "grow":
        table.append(dict(payload, _rid=len(table)))
        return
    if not table:
        return
    rid_to_row = {}
    for idx, row in payload:
        rid_to_row[table[idx % len(table)]["_rid"]] = dict(row)
    if rid_to_row:
        db.update_rows(name, rid_to_row)


@given(
    records=record_sets,
    ops=deltas,
    collide=st.booleans(),
    block_on=st.sampled_from([None, "a"]),
)
@SETTINGS
def test_interleaved_deltas_match_cold_oracle(dbs, records, ops, collide, block_on):
    db, oracle = dbs
    name = f"t{next(_NAMES)}"
    db.register_table(name, with_rids(records))
    _check_all(db, name, block_on)  # build resident state pre-delta
    for kind, payload, check in ops:
        _apply(db, name, kind, payload, collide)
        if check:
            assert _matches_cold(db, oracle, name, block_on)
    assert _matches_cold(db, oracle, name, block_on)


def test_rows_moving_between_groups(dbs):
    """Updates that move a row to another FD key / DC equality group /
    dedup block — including the move that empties one, the move back that
    re-creates it, and two rows trading places in one delta."""
    db, oracle = dbs
    name = f"t{next(_NAMES)}"
    rows = [{"a": i % 4, "b": i % 3, "c": i % 5} for i in range(20)]
    rows.append({"a": 9, "b": 0, "c": 9})  # alone in key 9, group 9, block 9
    db.register_table(name, with_rids(rows))
    _check_all(db, name, "a")
    for update in (
        {20: {"a": 0, "b": 7, "c": 0}},  # empties 9; a new rhs for key 0
        {20: {"a": 9, "b": 0, "c": 9}},  # and back
        {0: dict(rows[1]), 1: dict(rows[0]), 20: {"a": 1, "b": 1, "c": 1}},
        {5: {"a": None, "b": None, "c": None}},  # out of every DC group
    ):
        db.update_rows(name, update)
        assert _matches_cold(db, oracle, name, "a")
    # Served from the maintained states throughout, none dropped on the way.
    assert sum(slot[0] in ("fd", "dc", "dedup") for slot in db.tables._derived[name]) == 5


def test_fd_values_are_spelled_as_the_cold_run_spells_them(dbs):
    """``True == 1``: both rows bear one rhs value, and the violation
    reports it as its first *current* bearer spells it — also after the
    row that used to be first has moved on."""
    db, oracle = dbs
    name = f"t{next(_NAMES)}"
    rows = [{"a": i, "b": 0, "c": 0} for i in range(9)]
    rows[0] = {"a": 0, "b": 1, "c": 0}
    rows[3] = {"a": 0, "b": True, "c": 0}  # same partition as row 0 (3 nodes)
    db.register_table(name, with_rids(rows))
    _check_all(db, name, None)
    db.update_rows(name, {0: {"a": 0, "b": 5, "c": 0}})
    assert "rhs_values=(5, True)" in repr(db.check_fd(name, ["a"], ["b"]))
    assert _matches_cold(db, oracle, name, None)


@pytest.mark.parametrize("execution", BACKENDS)
def test_empty_delta_is_noop(execution):
    kwargs = dict(num_nodes=3, execution=execution)
    if execution == "parallel":
        kwargs["workers"] = WORKERS
    db = CleanDB(incremental=True, **kwargs)
    try:
        db.register_table("t", with_rids([{"a": i % 2, "b": i % 3} for i in range(9)]))
        before = repr(db.check_fd("t", ["a"], ["b"]))
        version = db.tables.versions["t"]
        db.append_rows("t", [])
        db.update_rows("t", {})
        assert db.tables.versions["t"] == version
        assert repr(db.check_fd("t", ["a"], ["b"])) == before
    finally:
        db.close()


@pytest.mark.parametrize("execution", BACKENDS)
def test_violation_resolving_update(execution):
    """An update that *removes* violations must shrink every result —
    maintained state can't merely accumulate."""
    kwargs = dict(num_nodes=3, execution=execution)
    if execution == "parallel":
        kwargs["workers"] = WORKERS
    db = CleanDB(incremental=True, **kwargs)
    try:
        rows = [{"a": i % 3, "b": i % 4, "c": i} for i in range(24)]
        db.register_table("t", with_rids(rows))
        assert db.check_fd("t", ["a"], ["b"])
        assert db.check_dc("t", "t1.a < t2.a and t1.b > t2.b")
        # Make the table FD- and DC-clean: b a function of a, b ordered
        # with a.
        db.update_rows(
            "t", {i: {"a": i, "b": i, "c": i} for i in range(24)}
        )
        assert db.check_fd("t", ["a"], ["b"]) == []
        assert db.check_dc("t", "t1.a < t2.a and t1.b > t2.b") == []
    finally:
        db.close()


def test_incremental_path_actually_taken():
    """Guard against the whole suite passing vacuously via cold fallback:
    on a large-enough table every maintained operation must serve its
    post-delta result from resident state (an ``incremental:`` op) and the
    mutation must ship only the delta (``rows_delta``)."""
    db = CleanDB(num_nodes=3, execution="parallel", workers=WORKERS,
                 incremental=True)
    try:
        rows = [{"a": i % 5, "b": i % 4, "c": i % 7} for i in range(40)]
        db.register_table("t", with_rids(rows))
        db.check_fd("t", ["a"], ["b"])
        db.check_dc("t", RULE)
        db.deduplicate("t", ["c"], theta=0.5)
        make_resident(db, "t")  # the maintained checks read no pool
        db.cluster.metrics.reset()
        db.append_rows("t", [{"a": 1, "b": 2, "c": 3}])
        db.update_rows("t", {7: {"a": 0, "b": 0, "c": 0}})
        db.check_fd("t", ["a"], ["b"])
        db.check_dc("t", RULE)
        db.deduplicate("t", ["c"], theta=0.5)
        names = [op.name for op in db.cluster.metrics.ops]
        assert names.count("delta:t") == 2
        assert db.cluster.metrics.rows_delta == 2
        for kind in ("fd", "dc", "dedup"):
            assert f"incremental:{kind}:t" in names
    finally:
        db.close()


def _cold_parity_through_deltas(execution, rows, appended, updates, check, **kwargs):
    """``check`` answers alike, as ``repr``, on an incremental session and a
    cold one: on the first check, after ``appended`` and after ``updates``."""
    kwargs["execution"] = execution
    if execution == "parallel":
        kwargs["workers"] = WORKERS
    db, cold = CleanDB(incremental=True, **kwargs), CleanDB(**kwargs)
    try:
        db.register_table("t", with_rids(rows))
        for write in (
            lambda: None,
            lambda: db.append_rows("t", appended),
            lambda: db.update_rows("t", updates),
        ):
            write()
            cold.register_table("t", [dict(r) for r in db.table("t")])
            assert repr(check(db)) == repr(check(cold))
    finally:
        db.close()
        cold.close()


#: An eq + band + residual DC and a symmetric one, where both orders of a
#: pair violate and the exactly-once rule picks one.
BULK_RULES = ("t1.c == t2.c and t1.a < t2.a and t1.b != t2.b", "t1.c == t2.c and t1.b != t2.b")


@pytest.mark.parametrize("execution", ("row", "parallel"))
def test_a_bulk_delta_into_one_group_matches_cold(execution):
    """One write appends 240 rows to equality group ``c == 0``, the next
    updates 240 rows into it (200 move in from other groups): the delta
    outnumbers the group's maintained lefts, so each orientation of the
    exactly-once rule meets old and new rows on both sides.  Nulls and NaN
    ride along in the band and residual."""
    rows = [{"a": i % 23, "b": i % 9 == 0, "c": i % 4} for i in range(400)]
    for i in range(0, 400, 37):
        rows[i]["a" if i % 2 else "b"] = None
    for i in range(4, 400, 52):  # NaN in group 0's band column
        rows[i]["a"] = math.nan
    appended = [{"a": (7 * j) % 31, "b": j % 11 == 0, "c": 0} for j in range(240)]
    appended[5]["a"] = None
    updates = {g: {"a": (5 * g) % 29, "b": g % 13 == 0, "c": 0} for g in range(1, 481, 2)}
    served = []

    def check(db):
        """Each answer's length and the digest of its ``repr``: a failing
        diff of two megabyte-long reprs would take minutes to print."""
        db.cluster.metrics.reset()
        answers = [db.check_dc("t", rule) for rule in BULK_RULES]
        served.append([op.name for op in db.cluster.metrics.ops])
        return [(len(a), hashlib.sha256(repr(a).encode()).hexdigest()) for a in answers]

    _cold_parity_through_deltas(execution, rows, appended, updates, check, num_nodes=3)
    # The incremental session's checks after each write: patched, not cold.
    assert served[2::2] == [["incremental:dc:t"] * 2] * 2


def _spelled_rows(size, at, spellings, b=None):
    """``size`` rows of distinct keys ``k`` but equal ``name``s, with
    ``spellings`` of one key at rows ``at`` (and their ``b`` values)."""
    rows = [{"k": 100 + i, "b": 0, "name": "same"} for i in range(size)]
    for i, key, bv in zip(at, spellings, b or [0] * len(at)):
        rows[i].update(k=key, b=bv)
    return rows


def _served_incrementally(execution, rows, appended, updates, check, **kwargs):
    """:func:`_cold_parity_through_deltas`, and the incremental session's
    checks after each write record only ``incremental:*`` ops: a key
    spelled two ways is served from the maintained state, not a cold rerun."""
    served = []

    def recorded(db):
        db.cluster.metrics.reset()
        answer = check(db)
        served.append([op.name for op in db.cluster.metrics.ops])
        return answer

    _cold_parity_through_deltas(execution, rows, appended, updates, recorded, **kwargs)
    for names in served[2::2]:
        assert names and all(name.startswith("incremental:") for name in names), names


@pytest.mark.parametrize("execution", BACKENDS)
def test_fd_key_spelled_apart_across_partitions(execution):
    """``1`` at row 0 and ``1.0`` at row 1 of ten partitions route to one
    merge bucket: the cold fold and the maintained index both report one
    violation on the key, spelled ``1`` as row 0 spells it."""
    _served_incrementally(
        execution,
        _spelled_rows(32, (0, 1), (1, 1.0), b=(0, 1)),
        [{"k": 1.0, "b": 2, "name": "same"}],
        {5: {"k": 1, "b": 3, "name": "same"}, 1: {"k": 1, "b": 1, "name": "same"}},
        lambda db: db.check_fd("t", ["k"], ["b"]),
    )


@pytest.mark.parametrize("execution", BACKENDS)
def test_fd_key_spelled_apart_within_a_partition(execution):
    """``-2`` at row 4 and ``-2.0`` appended at row 13 share partition 1 of
    three: one violation.  Then row 4 leaves and row 7 joins as ``-2.0``:
    the group is all ``-2.0`` and keeps the merge bucket every spelling of
    the key routes to, however the key was first spelled."""
    _served_incrementally(
        execution,
        _spelled_rows(13, (4, 6), (-2, 103), b=(0, 1)),
        [{"k": -2.0, "b": 1, "name": "same"}],
        {4: {"k": 5, "b": 0, "name": "same"}, 7: {"k": -2.0, "b": 2, "name": "same"}},
        lambda db: db.check_fd("t", ["k"], ["b"]),
        num_nodes=3,
    )


@pytest.mark.parametrize("execution", BACKENDS)
def test_dedup_block_key_spelled_apart(execution):
    """Blocking on ``k`` over ``1`` and ``1.0`` with equal names: one
    block, so the rows pair up in the cold run and in the maintained one."""
    _served_incrementally(
        execution,
        _spelled_rows(32, (0, 1), (1, 1.0)),
        [{"k": 1.0, "b": 0, "name": "same"}],
        {5: {"k": 1, "b": 0, "name": "same"}},
        lambda db: db.deduplicate("t", ["name"], theta=0.5, block_on="k"),
    )


@pytest.mark.parametrize("execution", BACKENDS)
def test_a_group_refilled_in_another_spelling_routes_by_it(execution):
    """One update empties key ``1`` (row 0 moves to ``7``) and refills it
    as ``1.0`` (rows 5 and 6): the refilled group reports ``1.0``, as its
    first row spells it, in the merge bucket every spelling of the key
    routes to, after the violation and the pair on ``103``."""
    _served_incrementally(
        execution,
        _spelled_rows(32, (0, 2), (1, 103), b=(0, 1)),
        [],
        {
            0: {"k": 7, "b": 0, "name": "same"},
            5: {"k": 1.0, "b": 1, "name": "same"},
            6: {"k": 1.0, "b": 2, "name": "same"},
        },
        lambda db: (
            db.check_fd("t", ["k"], ["b"]),
            db.deduplicate("t", ["name"], theta=0.5, block_on="k"),
        ),
    )

"""Incremental maintenance: a 1% delta re-check vs a cold re-run.

The delta path's claim is that after ``append_rows``/``update_rows`` the
next check does delta-sized work: only the delta crosses the process
boundary (patched pins, not re-shipped tables) and only the delta is
probed against resident state (maintained FD combiners, dedup blocks with
memoized verification, the DC group index).

For each cleaning operation this bench builds the maintained state on the
parallel backend with a warm pool, re-checks once with no delta (the
cached emit), then ships ``ROUNDS`` 1% deltas (half ``append_rows``, half
``update_rows``), re-checking after each.  It asserts that the patches
ship rows (``rows_delta`` > 0, recorded in ``BENCH_incremental.json``),
that each re-check is served from resident state, and that the final
incremental result is ``repr``-identical to a cold session on the
post-delta table, so a fast answer can never be a stale or reordered one.

No clock is read here.  That a re-check does delta-sized work is held by
``tests/cleaning/test_incremental_cost.py``, which counts the work
instead of timing it; the measured cost of writes beside reads is
``python3 -m bench --workload delta_stream``.
"""

from bench_json import BENCH_INCREMENTAL_PATH, emit_bench
from workloads import NUM_NODES, PARALLEL_WORKERS

from repro import CleanDB
from repro.evaluation import print_table
from repro.physical.parallel_exec import resident_input

# Single ordered predicate: the plan is static, so delta patches skip
# re-planning — the paper-shaped "equal category, higher price must not
# ship a different quantity" rule.
DC_RULE = "t1.cat == t2.cat and t1.price < t2.price and t1.qty != t2.qty"
ROUNDS = 3
DELTA_FRACTION = 0.01


def _fd_rows(n: int = 90000) -> list[dict]:
    # nation is a function of addr except for a planted violation roughly
    # every thousandth row, so the maintained state (and the merge cost of
    # every re-check) tracks the group count, not the row count.
    return [
        {
            "addr": f"a{i % 150}",
            "phone": f"{i % 89}-{i % 7}55",
            "nation": (i % 150) % 11 + (0 if i % 997 else 1),
        }
        for i in range(n)
    ]


def _dc_rows(n: int = 4000) -> list[dict]:
    # qty is constant per category, so "same cat, cheaper, different qty"
    # holds only for the planted rows — the violation set stays small and
    # the banded kernel's cost is the scan, not pair materialization.
    rows = [
        {"cat": f"c{i % 5}", "price": float(i), "qty": i % 5}
        for i in range(n)
    ]
    for idx in range(101, n, 1999):  # planted violations
        rows[idx]["qty"] += 1
    return rows


def _dedup_rows(n: int = 1800) -> list[dict]:
    # ~20 records per block; names inside a block are near-duplicates so
    # the similarity kernel does real verification work.
    return [
        {"city": f"c{i % 90}", "name": f"record name {i % 90} v{i % 4}"}
        for i in range(n)
    ]


def _delta_for(rows_factory, base_len: int, round_idx: int):
    """A 1%-sized delta: half fresh appends, half in-place updates."""
    size = max(2, int(base_len * DELTA_FRACTION))
    template = rows_factory(size)
    appends = [dict(r) for r in template[: size // 2]]
    updates = {
        (round_idx * 31 + j * 97) % base_len: dict(template[size // 2 + j])
        for j in range(size - size // 2)
    }
    return appends, updates


def _bench_operation(label: str, rows_factory, check) -> dict:
    records = rows_factory()
    db = CleanDB(
        num_nodes=NUM_NODES,
        execution="parallel",
        workers=PARALLEL_WORKERS,
        incremental=True,
    )
    try:
        db.register_table("t", [dict(r) for r in records])
        check(db)  # build the maintained state, which reads no pool
        # Pin the table as a pool read does, so each delta patches it.
        resident_input(db.cluster, db.table("t"), db.tables.pinned_key("t"))
        check(db)  # warm: no delta in between

        rows_delta_before = db.cluster.metrics.rows_delta
        for round_idx in range(ROUNDS):
            appends, updates = _delta_for(
                rows_factory, len(db.table("t")), round_idx
            )
            db.append_rows("t", appends)
            db.update_rows("t", updates)
            check(db)
        rows_delta = db.cluster.metrics.rows_delta - rows_delta_before
        assert rows_delta > 0, "delta patches must ship rows, not tables"
        op_names = [op.name for op in db.cluster.metrics.ops]
        assert f"incremental:{label}:t" in op_names, (
            "the re-check must be served from resident state"
        )

        # Oracle: the incremental result is byte-identical to a cold
        # session on the post-delta table.
        oracle = CleanDB(num_nodes=NUM_NODES)
        try:
            oracle.register_table("t", [dict(r) for r in db.table("t")])
            assert repr(check(db)) == repr(check(oracle))
        finally:
            oracle.close()
    finally:
        db.close()

    return {"rows_delta": int(rows_delta)}


def test_bench_incremental(report):
    results = {
        "fd": _bench_operation(
            "fd", _fd_rows, lambda db: db.check_fd("t", ["addr"], ["nation"])
        ),
        "dc": _bench_operation(
            "dc", _dc_rows, lambda db: db.check_dc("t", DC_RULE)
        ),
        "dedup": _bench_operation(
            "dedup",
            _dedup_rows,
            lambda db: db.deduplicate(
                "t", ["name"], theta=0.6, block_on="city"
            ),
        ),
    }
    rows = [
        {"operation": name, "rows_delta": r["rows_delta"]}
        for name, r in results.items()
    ]
    report(print_table("Incremental: 1% delta re-check vs cold", rows))
    emit_bench(BENCH_INCREMENTAL_PATH, "operations", results)

"""Incremental maintenance: a 1% delta re-check vs a cold re-run.

The delta path's claim is that after ``append_rows``/``update_rows`` the
next check costs a fraction of checking from scratch: only the delta
crosses the process boundary (patched pins, not re-shipped tables) and
only the delta is probed against resident state (maintained FD combiners,
dedup blocks with memoized verification, the DC group index).

For each cleaning operation this bench measures, on the parallel backend
with a warm pool:

* ``cold_seconds``  — first check in a fresh session (per-round minimum),
  which includes pinning the table: only a pool read pins it;
* ``warm_seconds``  — re-check with no intervening delta (cached emit);
* ``apply_seconds`` — shipping a 1% delta (``append_rows`` +
  ``update_rows``): the patch transport plus state maintenance;
* ``delta_seconds`` — the re-check *after* that delta.

The ratio ``delta_over_cold`` is recorded, not asserted: a wall-clock
ratio of a few milliseconds is noise on a loaded host, and the claim it
stood for — a re-check after a delta does delta-sized work — is held
deterministically by ``tests/cleaning/test_incremental_cost.py``, which
counts the work instead of timing it.  The apply cost is reported for the
same reason cold timing excludes ``register_table``: loading the data is
the same work either way.  Results land in ``BENCH_incremental.json``;
each re-check must be served from resident state and ship only the delta,
and every incremental result is checked ``repr``-identical to a cold
session on the post-delta table, so a fast answer can never be a stale or
reordered one.
"""

import time

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


def _time(action) -> float:
    start = time.perf_counter()
    action()
    return time.perf_counter() - start


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

    # Cold: fresh session each round; registration and the pool spawn
    # happen before the clock starts, so cold pays the check and the pin
    # of its first pool read.
    cold = float("inf")
    for _ in range(ROUNDS):
        db = CleanDB(
            num_nodes=NUM_NODES, execution="parallel", workers=PARALLEL_WORKERS
        )
        try:
            db.register_table("t", [dict(r) for r in records])
            db.cluster.pool
            cold = min(cold, _time(lambda: check(db)))
        finally:
            db.close()

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
        warm = min(_time(lambda: check(db)) for _ in range(ROUNDS))

        apply = delta = float("inf")
        rows_delta_before = db.cluster.metrics.rows_delta
        for round_idx in range(ROUNDS):
            appends, updates = _delta_for(
                rows_factory, len(db.table("t")), round_idx
            )

            def apply_delta():
                db.append_rows("t", appends)
                db.update_rows("t", updates)

            apply = min(apply, _time(apply_delta))
            delta = min(delta, _time(lambda: check(db)))
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

    return {
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "apply_seconds": round(apply, 4),
        "delta_seconds": round(delta, 4),
        "delta_over_cold": round(delta / cold, 4) if cold else None,
        "rows_delta": int(rows_delta),
    }


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
        {
            "operation": name,
            "cold_s": r["cold_seconds"],
            "warm_s": r["warm_seconds"],
            "apply_s": r["apply_seconds"],
            "delta_s": r["delta_seconds"],
            "delta/cold": r["delta_over_cold"],
            "rows_delta": r["rows_delta"],
        }
        for name, r in results.items()
    ]
    report(print_table("Incremental: 1% delta re-check vs cold", rows))
    emit_bench(BENCH_INCREMENTAL_PATH, "operations", results)

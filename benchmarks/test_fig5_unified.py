"""Fig. 5: unified data cleaning on the customer table.

The query checks FD1: address → prefix(phone), FD2: address → nationkey,
and duplicate customers at the same address — first as three separate
sub-queries, then as one unified query.

Expected shape (paper §8.2):
* CleanDB's unified run is *cheaper* than its three separate runs — the
  rewriter coalesces the three groupings on `address` into one pass;
* Spark SQL cannot coalesce: its unified run costs *more* than separate
  (it pays a full outer join to combine the outputs);
* BigDansing runs one operation at a time, cannot evaluate FD1 at all
  (computed attribute prefix()), and is the slowest overall;
* CleanDB is fastest in both modes.

On top of the simulated table, this bench runs the *real* parallel
backend: separate vs unified execution on a warm worker pool (the
coalescing win must show up in measured seconds, not just the cost model;
asserted, not recorded, since a clock reading is not reproducible), and
the worker-resident partition store's transport win — a warm re-run on a
pinned table must ship at least 5x fewer bytes than the cold
ship-everything run.  Headline numbers land in ``BENCH_fig5.json``.
"""

import time

from bench_json import BENCH_FIG5_PATH, emit_bench
from workloads import NUM_NODES, PARALLEL_WORKERS, customer_small

from repro import CleanDB, PhysicalConfig
from repro.baselines import BigDansingSystem
from repro.evaluation import print_table

QUERY_UNIFIED = (
    "SELECT * FROM customer c "
    "FD(c.address, prefix(c.phone)) "
    "FD(c.address, c.nationkey) "
    "DEDUP(exact, LD, 0.5, c.address)"
)
QUERIES_SEPARATE = [
    "SELECT * FROM customer c FD(c.address, prefix(c.phone))",
    "SELECT * FROM customer c FD(c.address, c.nationkey)",
    "SELECT * FROM customer c DEDUP(exact, LD, 0.5, c.address)",
]


def _facade(grouping: str, coalesce: bool) -> CleanDB:
    records, _ = customer_small()
    db = CleanDB(
        num_nodes=NUM_NODES,
        config=PhysicalConfig(grouping=grouping),
        coalesce=coalesce,
    )
    db.register_table("customer", records)
    return db


def run_fig5():
    rows = []

    # CleanDB: separate runs vs one coalesced query.
    separate_total = 0.0
    outputs_separate = {}
    for query in QUERIES_SEPARATE:
        db = _facade("aggregate", coalesce=True)
        result = db.execute(query)
        separate_total += result.metrics["simulated_time"]
        outputs_separate.update(
            {name: len(rows_) for name, rows_ in result.branches.items()}
        )
    db = _facade("aggregate", coalesce=True)
    unified = db.execute(QUERY_UNIFIED)
    rows.append(
        {
            "system": "CleanDB",
            "separate": round(separate_total, 1),
            "unified": round(unified.metrics["simulated_time"], 1),
            "coalesced": bool(unified.report.coalesced_groups),
        }
    )
    cleandb_outputs = {name: len(r) for name, r in unified.branches.items()}

    # Spark SQL: sort-based grouping, no coalescing; unified pays the
    # output-combining outer join on top.
    spark_separate = 0.0
    for query in QUERIES_SEPARATE:
        db = _facade("sort", coalesce=False)
        spark_separate += db.execute(query).metrics["simulated_time"]
    db = _facade("sort", coalesce=False)
    spark_unified = db.execute(QUERY_UNIFIED)
    rows.append(
        {
            "system": "SparkSQL",
            "separate": round(spark_separate, 1),
            "unified": round(spark_unified.metrics["simulated_time"], 1),
            "coalesced": bool(spark_unified.report.coalesced_groups),
        }
    )
    spark_outputs = {name: len(r) for name, r in spark_unified.branches.items()}

    # BigDansing: separate hash-grouped jobs only; FD1 is unsupported.
    records, _ = customer_small()
    system = BigDansingSystem(num_nodes=NUM_NODES)
    fd1 = system.check_fd(records, [lambda r: r["phone"][:3]], ["address"])
    fd2 = system.check_fd(records, ["address"], ["nationkey"])
    dedup = system.deduplicate(
        records, ["address"], block_on="address", theta=0.5
    )
    bigdansing_total = fd2.simulated_time + dedup.simulated_time
    rows.append(
        {
            "system": "BigDansing",
            "separate": round(bigdansing_total, 1),
            "unified": None,  # cannot combine operations
            "coalesced": False,
            "note": f"FD1 {fd1.status}",
        }
    )
    return rows, cleandb_outputs, spark_outputs


def _best_of(runs: int, action) -> float:
    """Minimum wall-clock over ``runs`` executions (noise-resistant)."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - start)
    return best


def run_parallel_measured() -> tuple[dict, float, float]:
    """Measured wall-clock of the parallel backend: separate vs unified.

    One warm CleanDB facade (table pinned at registration, pool running,
    task functions registered) executes the three standalone queries and
    the unified query; the coalescing advantage must be visible in real
    seconds on real worker processes, not only in the simulated clock.
    Returns the bytes each shipped, and the two timings for the caller to
    compare, not to record.
    """
    records, _ = customer_small()
    db = CleanDB(
        num_nodes=NUM_NODES, execution="parallel", workers=PARALLEL_WORKERS
    )
    try:
        db.register_table("customer", records)
        db.execute(QUERY_UNIFIED)  # warm-up: pool, pins, caches
        pool = db.cluster.pool
        bytes_before = pool.bytes_shipped_total
        separate = _best_of(
            3, lambda: [db.execute(q) for q in QUERIES_SEPARATE]
        )
        separate_bytes = (pool.bytes_shipped_total - bytes_before) // 3
        bytes_before = pool.bytes_shipped_total
        db.execute(QUERY_UNIFIED)
        unified_bytes = pool.bytes_shipped_total - bytes_before
        unified = _best_of(3, lambda: db.execute(QUERY_UNIFIED))
    finally:
        db.close()
    shipped = {
        "separate_bytes_shipped": int(separate_bytes),
        "unified_bytes_shipped": int(unified_bytes),
    }
    return shipped, separate, unified


# Denial constraint for the pinned-store measurement: a mostly-clean
# lineitem-style table where a handful of corrupted rows violate
# "higher price never ships a smaller quantity".
DC_RULE = "t1.price < t2.price and t1.qty > t2.qty"


def _dc_records() -> list[dict]:
    rows = []
    for i in range(3000):
        rows.append({"price": float(i), "qty": i // 100, "cat": f"c{i % 3}"})
    for j in range(5):
        rows[137 + j * 311]["qty"] += 2
    return rows


def run_pinned_store() -> dict:
    """Cold vs warm transport volume of a handle-based DC check.

    The cold run is the ship-per-task baseline: it pins the table (full
    rows cross the process boundary once), streams the extraction vectors
    back for the index build, and broadcasts the index.  The warm run
    references everything by handle — partitions, extraction output, and
    index are already worker-resident — so only task argument tuples and
    the violating pair references move.  The pinned partition store must
    make the warm run ship at least 5x fewer bytes.
    """
    records = _dc_records()
    db = CleanDB(
        num_nodes=NUM_NODES, execution="parallel", workers=PARALLEL_WORKERS
    )
    try:
        pool = db.cluster.pool
        start = pool.bytes_shipped_total
        db.register_table("lineitem", records)
        cold_violations = db.check_dc("lineitem", DC_RULE)
        cold = pool.bytes_shipped_total - start
        start = pool.bytes_shipped_total
        warm_violations = db.check_dc("lineitem", DC_RULE)
        warm = pool.bytes_shipped_total - start
    finally:
        db.close()
    assert len(cold_violations) == len(warm_violations)
    # Byte-identity with the serial row backend (the safety net the store
    # optimisation must never trade away).
    row_db = CleanDB(num_nodes=NUM_NODES)
    row_db.register_table("lineitem", records)
    assert repr(row_db.check_dc("lineitem", DC_RULE)) == repr(cold_violations)
    return {
        "violations": len(cold_violations),
        "cold_bytes": int(cold),
        "warm_bytes": int(warm),
        "ratio": round(cold / warm, 1) if warm else None,
    }


def test_fig5_unified_cleaning(benchmark, report):
    (rows, cleandb_outputs, spark_outputs) = benchmark.pedantic(
        run_fig5, rounds=1, iterations=1
    )
    report(print_table("Fig 5: unified data cleaning (customer)", rows))
    by = {r["system"]: r for r in rows}

    # CleanDB coalesced the three operations; unified < separate.
    assert by["CleanDB"]["coalesced"]
    assert by["CleanDB"]["unified"] < by["CleanDB"]["separate"]
    # Spark SQL cannot coalesce; its unified run is more expensive than the
    # standalone executions (output-combination overhead, §8.2).
    assert not by["SparkSQL"]["coalesced"]
    assert by["SparkSQL"]["unified"] > by["SparkSQL"]["separate"]
    # CleanDB is the fastest system in both modes; BigDansing the slowest
    # (and it cannot run FD1 at all).
    assert by["CleanDB"]["unified"] < by["SparkSQL"]["unified"]
    assert by["CleanDB"]["separate"] < by["SparkSQL"]["separate"]
    assert by["BigDansing"]["separate"] > by["CleanDB"]["separate"]
    assert by["BigDansing"]["note"] == "FD1 unsupported"
    # Identical violation counts regardless of plan.
    assert cleandb_outputs == spark_outputs
    assert cleandb_outputs["fd1"] > 0 and cleandb_outputs["dedup"] > 0
    emit_bench(BENCH_FIG5_PATH, "systems", {"rows": rows, "outputs": cleandb_outputs})


def test_fig5_parallel_measured(report):
    """The coalescing win survives contact with real worker processes:
    the unified parallel query is faster in measured wall-clock than the
    three standalone runs."""
    shipped, separate, unified = run_parallel_measured()
    report(
        print_table(
            "Fig 5: parallel backend, bytes shipped (warm pool)",
            [
                {"mode": "separate (3 queries)", "bytes": shipped["separate_bytes_shipped"]},
                {"mode": "unified (coalesced)", "bytes": shipped["unified_bytes_shipped"]},
            ],
        )
    )
    emit_bench(BENCH_FIG5_PATH, "parallel_measured", shipped)
    assert unified < separate
    # The parallel backend genuinely ran the standalone queries (shipped
    # bytes, measured time).  It cannot claim the coalesced DAG (one branch
    # unnests the shared grouping), and what it cannot claim must cost it
    # nothing: the driver holds the table, so no table-sized payload crosses.
    assert shipped["separate_bytes_shipped"] > 0
    assert shipped["unified_bytes_shipped"] < 4096


def test_fig5_pinned_store(report):
    """A warm re-run on a pinned table ships at least 5x fewer bytes than
    the cold ship-everything run — the partition store's transport win."""
    pinned = run_pinned_store()
    report(
        print_table(
            "Fig 5: worker-resident partition store (DC check, bytes shipped)",
            [
                {"run": "cold (pin + extract + broadcast)", "bytes": pinned["cold_bytes"]},
                {
                    "run": "warm (handles only)",
                    "bytes": pinned["warm_bytes"],
                    "ratio": pinned["ratio"],
                },
            ],
        )
    )
    emit_bench(BENCH_FIG5_PATH, "pinned_store", pinned)
    assert pinned["violations"] > 0
    assert pinned["cold_bytes"] >= 5 * pinned["warm_bytes"]

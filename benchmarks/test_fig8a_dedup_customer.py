"""Fig. 8a: duplicate elimination over the customer table.

Duplicates for 10% of the customers, with Zipf-distributed duplicate counts
in [1-50] and [1-100].  Expected shape (paper §8.3): CleanDB scales best —
BigDansing and Spark SQL "shuffle the entire dataset" instead of grouping
locally first, so the skewed duplicate blocks hurt them.

A second table measures the similarity kernel's candidate pruning on the
same workload under token-filtering blocking (where blocks overlap and
cross-entity candidates dominate): filters on vs. the naive unfiltered
loop must find the *same* duplicate pairs while invoking the metric at
least 3x less often, and finish faster on the wall clock (asserted, not
recorded).  The simulated numbers and counts also land in
``BENCH_fig8.json``.
"""

import time

from bench_json import BENCH_FIG8_PATH, emit_bench, run_record
from workloads import NUM_NODES, customer_zipf

from repro.baselines import BigDansingSystem, CleanDBSystem, SparkSQLSystem
from repro.cleaning import NO_FILTERS, deduplicate
from repro.engine import Cluster
from repro.evaluation import print_table, score_pairs

PRUNING_THETA = 0.8
PRUNING_ATTRS = ["name", "phone"]


def run_fig8a():
    rows = []
    accuracy = {}
    json_rows = {}
    for max_dups in (50, 100):
        data = customer_zipf(max_dups)
        row = {"workload": f"customers {max_dups}", "records": len(data.records)}
        for cls in (CleanDBSystem, SparkSQLSystem, BigDansingSystem):
            result = cls(num_nodes=NUM_NODES).deduplicate(
                data.records, ["name", "phone"], block_on="address", theta=0.5
            )
            row[cls.name] = round(result.simulated_time, 1)
            json_rows[f"customers{max_dups}:{cls.name}"] = run_record(result)
            if cls is CleanDBSystem:
                accuracy[max_dups] = result.output_count
        rows.append(row)
    # Sanity: detected pairs against ground truth on the smaller workload.
    data = customer_zipf(50)
    from repro.cleaning import deduplicate
    from repro.engine import Cluster

    cluster = Cluster(num_nodes=NUM_NODES)
    pairs = deduplicate(
        cluster.parallelize(data.records),
        ["name", "phone"],
        block_on="address",
        theta=0.5,
    ).collect()
    score = score_pairs([(p.left_id, p.right_id) for p in pairs], data.duplicate_pairs)
    return rows, score, json_rows


def run_fig8a_pruning():
    """Token-filtering dedup, kernel filters on vs. the naive loop."""
    data = customer_zipf(50)
    rows = []
    pair_sets = {}
    walls = {}
    for label, filters in (("filters on", None), ("filters off", NO_FILTERS)):
        cluster = Cluster(num_nodes=NUM_NODES)
        start = time.perf_counter()
        pairs = deduplicate(
            cluster.parallelize([dict(r) for r in data.records]),
            PRUNING_ATTRS,
            op="token_filtering",
            theta=PRUNING_THETA,
            filters=filters,
        ).collect()
        walls[label] = time.perf_counter() - start
        pair_sets[label] = {(p.left_id, p.right_id) for p in pairs}
        rows.append(
            {
                "config": label,
                "candidates": cluster.metrics.comparisons,
                "verified": cluster.metrics.verified,
                "pruning_ratio": round(cluster.metrics.pruning_ratio, 4),
                "sim_time": round(cluster.metrics.simulated_time, 1),
                "pairs": len(pairs),
            }
        )
    return rows, pair_sets, walls


def test_fig8a_customer_dedup(benchmark, report):
    rows, score, json_rows = benchmark.pedantic(run_fig8a, rounds=1, iterations=1)
    report(print_table("Fig 8a: dedup, customer with Zipf duplicates", rows))

    for row in rows:
        # CleanDB fastest; the baselines pay full-dataset shuffles.
        assert row["CleanDB"] < row["SparkSQL"]
        assert row["CleanDB"] < row["BigDansing"]
    # The [1-100] workload is strictly bigger and slower for everyone.
    assert rows[1]["records"] > rows[0]["records"]
    assert rows[1]["CleanDB"] > rows[0]["CleanDB"]
    # And the detected duplicates are real ones.
    assert score.precision == 1.0
    assert score.recall > 0.8

    # Guard against filter regressions: the kernel must never run the
    # metric on more pairs than the blocking produced (this is what the
    # CI perf-smoke job pins).
    for record in json_rows.values():
        assert 0 < record["verified"] <= record["candidates"]

    pruning_rows, pair_sets, walls = run_fig8a_pruning()
    report(
        print_table(
            "Fig 8a (kernel): token-filtering dedup, filters on vs naive",
            pruning_rows,
        )
    )
    by = {r["config"]: r for r in pruning_rows}
    on, off = by["filters on"], by["filters off"]
    # Identical duplicate sets — the filters are lossless.
    assert pair_sets["filters on"] == pair_sets["filters off"]
    # Same candidates, >= 3x fewer metric invocations, cheaper clock.
    assert on["candidates"] == off["candidates"]
    assert off["verified"] == off["candidates"]
    assert on["verified"] * 3 <= off["verified"]
    assert on["sim_time"] < off["sim_time"]
    assert walls["filters on"] < walls["filters off"]

    emit_bench(
        BENCH_FIG8_PATH,
        "fig8a",
        {
            "systems": json_rows,
            "pruning": {r["config"]: r for r in pruning_rows},
        },
    )

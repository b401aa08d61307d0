"""Fig. 8b: duplicate elimination over MAG (real-world skew).

The full MAG analogue and its single-year subset.  Two publications are
duplicates when they share year and author id and are >80% similar (§8.3).

Expected shape: CleanDB handles both; Spark SQL finishes the small subset
but blows the budget on the full, highly-skewed dataset (paper: ">10h").

The title-similarity phase is where the kernel's candidate pruning bites:
same-author-same-year blocks are full of distinct papers whose titles the
length/count filters reject without running the edit-distance DP, so the
verified count sits far below the candidate count (asserted >= 3x).
Results also land in ``BENCH_fig8.json``.
"""

from bench_json import BENCH_FIG8_PATH, emit_bench, run_record
from workloads import MAG_BUDGET, NUM_NODES, mag

from repro.baselines import CleanDBSystem, SparkSQLSystem
from repro.evaluation import print_table

ATTRS = ["title"]


def _block(record):
    return (record["year"], record["author_id"])


def run_fig8b():
    full = mag()
    subset = full.year_subset(2010)
    rows = []
    statuses = {}
    for label, data in (("MAG2010", subset), ("MAGtotal", full)):
        row = {"workload": label, "records": len(data.records)}
        for cls in (CleanDBSystem, SparkSQLSystem):
            result = cls(num_nodes=NUM_NODES, budget=MAG_BUDGET).deduplicate(
                data.records, ATTRS, block_on=_block, theta=0.8
            )
            row[cls.name] = (
                round(result.simulated_time, 1) if result.ok else result.status
            )
            statuses[(label, cls.name)] = result
        row["pruning"] = round(statuses[(label, "CleanDB")].pruning_ratio, 4)
        rows.append(row)
    return rows, statuses


def test_fig8b_mag_dedup(benchmark, report):
    rows, statuses = benchmark.pedantic(run_fig8b, rounds=1, iterations=1)
    report(print_table("Fig 8b: dedup over MAG", rows))

    # Both systems finish the one-year subset; Spark SQL is competitive there.
    assert statuses[("MAG2010", "CleanDB")].ok
    assert statuses[("MAG2010", "SparkSQL")].ok
    # Only CleanDB finishes the full skewed dataset.
    assert statuses[("MAGtotal", "CleanDB")].ok
    assert statuses[("MAGtotal", "SparkSQL")].status == "budget_exceeded"
    # CleanDB found real duplicates on the full set.
    assert statuses[("MAGtotal", "CleanDB")].output_count > 0
    # The kernel pruned the bulk of the candidate pairs before the metric:
    # >= 3x fewer verified comparisons than candidates, on both workloads.
    for label in ("MAG2010", "MAGtotal"):
        result = statuses[(label, "CleanDB")]
        assert 0 < result.verified * 3 <= result.comparisons

    emit_bench(
        BENCH_FIG8_PATH,
        "fig8b",
        {
            f"{label}:{system}": run_record(result)
            for (label, system), result in statuses.items()
        },
    )

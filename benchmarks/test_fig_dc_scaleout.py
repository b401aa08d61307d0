"""DC scale-out: the banded kernel vs the all-pairs theta strategies.

Rule ψ over the TPC-H lineitem workload (the Table 5 data), unbudgeted so
every strategy completes and the *examined pair* counts are directly
comparable.  Three tables:

* **strategy table** — banded vs matrix vs cartesian across scale
  factors: identical violations, strictly fewer examined pairs (the
  ``verified`` counter) and lower simulated time for the banded plan.
* **exec-backend table** — the banded kernel on row vs parallel (real
  worker processes) vs vectorized (column batches): byte-identical
  violation pairs at the simulated cost of each.
* **repair table** — ``repair_dc_by_relaxation`` on the detected
  violations: zero residual violations at every scale factor.

The headline numbers land in ``BENCH_dc.json`` (via ``bench_json``), next
to the Fig. 8 similarity-kernel pruning figures.
"""

from bench_json import BENCH_DC_PATH, emit_bench, run_record
from workloads import NUM_NODES, PARALLEL_WORKERS, SCALE_FACTORS, dc_price_cap, lineitem

from repro.baselines import CleanDBSystem
from repro.cleaning.repair import repair_dc_by_relaxation
from repro.datasets import rule_psi
from repro.evaluation import print_table

# The strategy sweep needs no budget: even cartesian completes at these
# sizes; what differs is how many pairs each plan examines.
STRATEGIES = ("banded", "matrix", "cartesian")


def _psi(records):
    return rule_psi(price_cap=dc_price_cap(records))


def run_dc_strategies():
    rows = []
    for sf in SCALE_FACTORS:
        records = lineitem(sf, noise_column="discount")
        psi = _psi(records)
        row = {"scale_factor": sf}
        for strategy in STRATEGIES:
            result = CleanDBSystem(num_nodes=NUM_NODES).check_dc(
                records, psi, strategy=strategy
            )
            row[strategy] = round(result.simulated_time, 1)
            row[f"{strategy}_examined"] = result.verified
            row[f"{strategy}_candidates"] = result.comparisons
            row[f"{strategy}_violations"] = result.output_count
        rows.append(row)
    return rows


def test_fig_dc_strategies(benchmark, report):
    rows = benchmark.pedantic(run_dc_strategies, rounds=1, iterations=1)
    display = [
        {
            "scale_factor": r["scale_factor"],
            "banded": r["banded"],
            "matrix": r["matrix"],
            "cartesian": r["cartesian"],
            "examined_banded": r["banded_examined"],
            "examined_allpairs": r["cartesian_examined"],
        }
        for r in rows
    ]
    report(print_table("Fig DC-a: rule psi, banded kernel vs all-pairs", display))

    for row in rows:
        # All strategies agree on the violations.
        counts = {row[f"{s}_violations"] for s in STRATEGIES}
        assert len(counts) == 1 and counts != {0}
        # Same logical pair universe (filtered left x full right) ...
        assert row["banded_candidates"] == row["cartesian_candidates"]
        # ... but the banded plan examines strictly fewer candidate pairs
        # than the all-pairs strategies (which examine every one).
        assert 0 < row["banded_examined"] < row["cartesian_examined"]
        assert row["banded_examined"] < row["matrix_examined"]
        # And it is cheaper on the simulated clock.
        assert row["banded"] < row["matrix"]
        assert row["banded"] < row["cartesian"]
    # Banded time grows monotonically but stays sane across the sweep.
    series = [r["banded"] for r in rows]
    assert series == sorted(series)

    emit_bench(
        BENCH_DC_PATH,
        "strategies",
        {
            str(r["scale_factor"]): {
                s: {
                    "simulated_time": r[s],
                    "candidates": r[f"{s}_candidates"],
                    "examined": r[f"{s}_examined"],
                    "violations": r[f"{s}_violations"],
                }
                for s in STRATEGIES
            }
            for r in rows
        },
    )


def run_dc_backends():
    rows = []
    for sf in (SCALE_FACTORS[0], SCALE_FACTORS[-1]):
        records = lineitem(sf, noise_column="discount")
        psi = _psi(records)
        results = {
            "row": CleanDBSystem(num_nodes=NUM_NODES).check_dc(records, psi),
            "vectorized": CleanDBSystem(
                num_nodes=NUM_NODES, execution="vectorized"
            ).check_dc(records, psi),
            "parallel": CleanDBSystem(
                num_nodes=NUM_NODES, execution="parallel", workers=PARALLEL_WORKERS
            ).check_dc(records, psi),
        }
        rows.append(
            {
                "scale_factor": sf,
                **{
                    f"sim_{name}": round(res.simulated_time, 1)
                    for name, res in results.items()
                },
                **{
                    f"{name}_violations": res.output_count
                    for name, res in results.items()
                },
                "results": results,
            }
        )
    return rows


def test_fig_dc_exec_backends(benchmark, report):
    rows = benchmark.pedantic(run_dc_backends, rounds=1, iterations=1)
    display = [
        {k: r[k] for k in ("scale_factor", "sim_row", "sim_vectorized", "sim_parallel")}
        for r in rows
    ]
    report(print_table(
        "Fig DC-b: banded kernel, row vs vectorized vs parallel (2 workers)",
        display,
    ))
    for row in rows:
        assert (
            row["row_violations"]
            == row["vectorized_violations"]
            == row["parallel_violations"]
            > 0
        )
        assert row["results"]["parallel"].wall_seconds > 0.0

    emit_bench(
        BENCH_DC_PATH,
        "exec_backends",
        {
            str(r["scale_factor"]): {
                name: run_record(res) for name, res in r["results"].items()
            }
            for r in rows
        },
    )


def run_dc_repair():
    rows = []
    for sf in (SCALE_FACTORS[0], SCALE_FACTORS[-1]):
        records = lineitem(sf, noise_column="discount")
        psi = _psi(records)
        repaired, rep = repair_dc_by_relaxation(records, psi)
        rows.append(
            {
                "scale_factor": sf,
                "violations": rep.violations_found,
                "cover": rep.cover_size,
                "changed": rep.cells_changed,
                "nulled": rep.cells_nulled,
                "rounds": rep.rounds,
                "residual": rep.residual_violations,
            }
        )
    return rows


def test_fig_dc_repair(benchmark, report):
    rows = benchmark.pedantic(run_dc_repair, rounds=1, iterations=1)
    report(print_table("Fig DC-c: repair by relaxation (rule psi)", rows))
    for row in rows:
        assert row["violations"] > 0
        # Every covered cell received exactly one update (moved or nulled),
        # and the cover is a small fraction of the violation count — that
        # is the point of covering the hypergraph instead of touching
        # every violating pair.
        assert row["cover"] == row["changed"] + row["nulled"] > 0
        assert row["cover"] < row["violations"]
        # Zero residual violations on the benchmark workload.
        assert row["residual"] == 0

    emit_bench(BENCH_DC_PATH, "repair", {str(r["scale_factor"]): dict(r) for r in rows})

"""Unit tests for the multi-process backend's seam: claiming, fallback,
error transport, and budget aborts through the executor.

Cross-backend result parity lives in the unified harness
(`tests/integration/test_backend_parity.py`); this file covers the
mechanics specific to `ParallelExecutor`.
"""

import pytest

from repro.algebra import Join, Nest, Reduce, Scan, Select, Unnest
from repro.engine import Cluster
from repro.errors import BudgetExceededError
from repro.monoid import BinOp, Call, Const, Proj, SumMonoid, Var
from repro.physical import Executor, ParallelExecutor, PhysicalConfig

ROWS = [{"k": i % 5, "v": float(i)} for i in range(40)]


def _explode(value):
    """Module-level (picklable) function that fails on one input."""
    if value == 7.0:
        raise ValueError("explode at 7")
    return value


def _parallel_executor(catalog, **cluster_kwargs):
    cluster = Cluster(num_nodes=4, workers=2, **cluster_kwargs)
    ex = Executor(cluster, catalog, config=PhysicalConfig(execution="parallel"))
    return ex, ParallelExecutor(ex)


class TestSupports:
    def test_supported_shapes_claimed(self):
        ex, par = _parallel_executor({"t": ROWS})
        plan = Nest(
            Select(Scan("t", "r"), BinOp(">", Proj(Var("r"), "v"), Const(3.0))),
            key=Proj(Var("r"), "k"),
            aggregates=(("s", SumMonoid(), Proj(Var("r"), "v")),),
            var="g",
        )
        assert par.supports(plan)
        ex.cluster.shutdown()

    def test_bare_scan_left_to_the_row_scan(self):
        """A Scan with nothing above it computes nothing: binding it in the
        workers only to fetch it back would ship the table to a driver that
        already holds it (every row-interpreted operator asks for its Scan
        child through ``execute``).  The row scan answers, once."""
        cluster = Cluster(num_nodes=4, workers=2)
        ex = Executor(cluster, {"t": ROWS}, config=PhysicalConfig(execution="parallel"))
        scan = Scan("t", "r")
        assert not ex._parallel_executor().supports(scan)
        assert ex._parallel_executor().supports(Select(scan, Const(True)))
        out = ex.execute(scan).collect()  # partition-major order
        assert sorted(out, key=lambda env: env["r"]["v"]) == [{"r": row} for row in ROWS]
        ex.execute(scan)
        assert [op.name for op in cluster.metrics.ops] == ["scan:t"]
        assert not cluster.has_pool  # nothing was pinned, bound or fetched
        cluster.shutdown()

    def test_theta_join_not_claimed(self):
        ex, par = _parallel_executor({"t": ROWS})
        theta = Join(
            Scan("t", "a"),
            Scan("t", "b"),
            predicate=BinOp("<", Proj(Var("a"), "v"), Proj(Var("b"), "v")),
        )
        assert not par.supports(theta)
        ex.cluster.shutdown()

    def test_unnest_not_claimed_but_executes_via_fallback(self):
        nested = [{"id": i, "tags": [f"t{i}", f"t{i+1}"]} for i in range(10)]
        cluster = Cluster(num_nodes=2, workers=2)
        ex = Executor(cluster, {"t": nested}, config=PhysicalConfig(execution="parallel"))
        plan = Unnest(
            Select(Scan("t", "r"), BinOp("<", Proj(Var("r"), "id"), Const(8))),
            path=Proj(Var("r"), "tags"),
            var="tag",
        )
        assert not ex._parallel_executor().supports(plan)
        out = ex.execute(plan).collect()
        row = Executor(Cluster(num_nodes=2), {"t": nested}).execute(plan).collect()
        assert sorted(map(repr, out)) == sorted(map(repr, row))
        # The Select/Scan subtree still ran on the pool under the row Unnest.
        assert cluster.metrics.measured_time > 0.0
        cluster.shutdown()

    def test_dataset_source_not_claimed(self):
        cluster = Cluster(num_nodes=2, workers=2)
        ds = cluster.parallelize(ROWS, name="t")
        ex = Executor(cluster, {"t": ds}, config=PhysicalConfig(execution="parallel"))
        assert not ex._parallel_executor().supports(Scan("t", "r"))
        # Execution still works via the row path.
        assert len(ex.execute(Scan("t", "r")).collect()) == len(ROWS)
        cluster.shutdown()

    def test_unpicklable_function_not_claimed(self):
        ex, par = _parallel_executor({"t": ROWS})
        ex.functions["closure"] = lambda v: v + 1  # not shippable
        par = ParallelExecutor(ex)  # rebuild to re-scan functions
        plan = Select(
            Scan("t", "r"),
            BinOp(">", Call("closure", (Proj(Var("r"), "v"),)), Const(3.0)),
        )
        assert not par.supports(plan)
        # The row path still evaluates the closure fine.
        assert ex.execute(plan).count() > 0
        ex.cluster.shutdown()

    def test_late_unpicklable_record_not_claimed(self):
        # The unpicklable value sits past any sample prefix: the whole list
        # must be checked, or dispatch would die with a raw pickling error.
        rows = [{"a": i} for i in range(10)] + [{"a": lambda: None}]
        cluster = Cluster(num_nodes=2, workers=2)
        ex = Executor(cluster, {"t": rows}, config=PhysicalConfig(execution="parallel"))
        assert not ex._parallel_executor().supports(Scan("t", "r"))
        assert len(ex.execute(Scan("t", "r")).collect()) == len(rows)
        assert not cluster.has_pool
        cluster.shutdown()

    def test_cleaning_fast_paths_fall_back_on_late_unpicklable_record(self):
        from repro.cleaning.ladder import run_check

        rows = [
            {"addr": f"a{i % 3}", "nation": i % 2, "name": f"n{i}", "_rid": i}
            for i in range(10)
        ]
        rows.append({**rows[0], "_rid": 10, "blob": lambda: None})
        cluster = Cluster(num_nodes=2, workers=2)
        violations = run_check(
            cluster, "fd", rows, "parallel", name="t", lhs=["addr"], rhs=["nation"]
        ).collect()
        assert violations  # row-path fallback still computes the answer
        pairs = run_check(
            cluster, "dedup", rows, "parallel", name="t",
            attributes=["name"], theta=0.1, block_on="addr",
        ).collect()
        assert pairs
        assert not cluster.has_pool  # neither path touched the pool
        cluster.shutdown()

    def test_sort_grouping_not_claimed(self):
        cluster = Cluster(num_nodes=2, workers=2)
        ex = Executor(
            cluster,
            {"t": ROWS},
            config=PhysicalConfig(execution="parallel", grouping="sort"),
        )
        plan = Nest(
            Scan("t", "r"),
            key=Proj(Var("r"), "k"),
            aggregates=(("s", SumMonoid(), Proj(Var("r"), "v")),),
            var="g",
        )
        assert not ex._parallel_executor().supports(plan)
        cluster.shutdown()


class TestErrorPaths:
    def test_worker_error_surfaces_original_exception(self):
        cluster = Cluster(num_nodes=4, workers=2)
        ex = Executor(
            cluster,
            {"t": ROWS},
            config=PhysicalConfig(execution="parallel"),
            functions={"explode": _explode},
        )
        plan = Select(
            Scan("t", "r"),
            BinOp(">", Call("explode", (Proj(Var("r"), "v"),)), Const(0.0)),
        )
        assert ex._parallel_executor().supports(plan)
        with pytest.raises(ValueError, match="explode at 7"):
            ex.execute(plan)
        cluster.shutdown()

    def test_budget_exceeded_abort_is_query_scoped(self):
        cluster = Cluster(num_nodes=4, workers=2, budget=5.0)
        ex = Executor(cluster, {"t": ROWS}, config=PhysicalConfig(execution="parallel"))
        with pytest.raises(BudgetExceededError):
            ex.execute(Select(Scan("t", "r"), Const(True)))
        # The abort discards the failed query's work but never the pool:
        # other queries (tenants) keep their resident state.
        assert cluster.has_pool
        cluster.shutdown()
        assert not cluster.has_pool


class TestMeasuredMetrics:
    def test_parallel_records_wall_clock_and_same_simulated_shape(self):
        plan = Nest(
            Scan("t", "r"),
            key=Proj(Var("r"), "k"),
            aggregates=(("s", SumMonoid(), Proj(Var("r"), "v")),),
            var="g",
        )
        row_cluster = Cluster(num_nodes=4)
        Executor(row_cluster, {"t": ROWS}).execute(plan)
        par_cluster = Cluster(num_nodes=4, workers=2)
        Executor(
            par_cluster, {"t": ROWS}, config=PhysicalConfig(execution="parallel")
        ).execute(plan)
        par_cluster.shutdown()
        assert row_cluster.metrics.measured_time == 0.0
        assert par_cluster.metrics.measured_time > 0.0
        # Both backends moved the same records through the wide dependency.
        assert (
            row_cluster.metrics.shuffled_records
            == par_cluster.metrics.shuffled_records
        )

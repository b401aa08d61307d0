"""Row-path vs vectorized-path parity: identical results, different costs.

These are the shared tests the dispatcher relies on: every plan shape the
columnar backend claims (filter, equi-join, nest/aggregate, reduce) must
produce exactly the row path's output on every storage format that can feed
it (CSV, JSON, and the binary columnar format), and unsupported shapes must
fall back without changing results.
"""

import pytest

from repro.algebra import Join, Nest, Reduce, Scan, Select, Unnest
from repro.cleaning.dedup import deduplicate, deduplicate_columnar
from repro.cleaning.denial import check_fd, check_fd_columnar
from repro.cleaning.ladder import run_check
from repro.engine import Cluster
from repro.monoid import (
    BagMonoid,
    BinOp,
    Call,
    Const,
    CountMonoid,
    Proj,
    SetMonoid,
    SumMonoid,
    Var,
)
from repro.physical import Executor, PhysicalConfig
from repro.physical.vectorized import VectorizedExecutor
from repro.sources import Catalog, Field, Schema, write_records

ORDERS = [
    {"okey": i, "cust": f"c{i % 7}", "price": float(100 + 13 * (i % 11)), "qty": i % 5 + 1}
    for i in range(60)
]
CUSTOMERS = [
    {"id": f"c{i}", "nation": f"n{i % 3}", "segment": "retail" if i % 2 else "corp"}
    for i in range(7)
]

ORDERS_SCHEMA = Schema(
    (Field("okey", "int"), Field("cust", "str"), Field("price", "float"), Field("qty", "int"))
)
CUSTOMERS_SCHEMA = Schema(
    (Field("id", "str"), Field("nation", "str"), Field("segment", "str"))
)


def _materialized_tables(tmp_path, fmt):
    """Round-trip both tables through a storage format, returning records."""
    catalog = Catalog()
    for name, records, schema in (
        ("orders", ORDERS, ORDERS_SCHEMA),
        ("customers", CUSTOMERS, CUSTOMERS_SCHEMA),
    ):
        path = tmp_path / f"{name}.{fmt}"
        write_records(path, records, fmt, schema)
        catalog.register(name, path, fmt, schema)
    return {name: catalog.load(name) for name in ("orders", "customers")}


def _run(tables, plan, execution, fmt):
    config = PhysicalConfig(execution=execution)
    ex = Executor(Cluster(num_nodes=4), dict(tables), config=config)
    result = ex.execute(plan)
    return result, ex


def _normalize(result):
    from repro.engine.dataset import Dataset

    if isinstance(result, Dataset):
        return sorted(map(repr, result.collect()))
    if isinstance(result, dict):
        return {k: _normalize(v) for k, v in result.items()}
    return result


FILTER_PLAN = Select(
    Scan("orders", "o", fmt="memory"),
    BinOp(
        "and",
        BinOp(">", Proj(Var("o"), "price"), Const(120.0)),
        BinOp("<", Proj(Var("o"), "qty"), Const(5)),
    ),
)

JOIN_PLAN = Join(
    Select(
        Scan("orders", "o"),
        BinOp(">", Proj(Var("o"), "price"), Const(110.0)),
    ),
    Scan("customers", "c"),
    left_keys=(Proj(Var("o"), "cust"),),
    right_keys=(Proj(Var("c"), "id"),),
)

NEST_PLAN = Nest(
    Scan("orders", "o"),
    key=Proj(Var("o"), "cust"),
    aggregates=(
        ("total", SumMonoid(), Proj(Var("o"), "price")),
        ("n", CountMonoid(), Var("o")),
    ),
    group_predicate=BinOp(">", Proj(Var("g"), "n"), Const(2)),
    var="g",
)


@pytest.mark.parametrize("fmt", ["csv", "json", "columnar"])
@pytest.mark.parametrize(
    "plan", [FILTER_PLAN, JOIN_PLAN, NEST_PLAN], ids=["filter", "join", "nest"]
)
def test_row_vectorized_parity_across_formats(tmp_path, fmt, plan):
    tables = _materialized_tables(tmp_path, fmt)
    row_result, _ = _run(tables, plan, "row", fmt)
    vec_result, vec_ex = _run(tables, plan, "vectorized", fmt)
    assert _normalize(row_result) == _normalize(vec_result)
    # The vectorized run actually took the columnar path.
    assert vec_ex.cluster.metrics.batches_processed > 0


@pytest.mark.parametrize("fmt", ["csv", "json", "columnar"])
def test_reduce_parity_across_formats(tmp_path, fmt):
    tables = _materialized_tables(tmp_path, fmt)
    for monoid, head in (
        (SumMonoid(), Proj(Var("o"), "price")),
        (CountMonoid(), Var("o")),
        (BagMonoid(), Proj(Var("o"), "cust")),
        (SetMonoid(), Proj(Var("o"), "cust")),
    ):
        plan = Reduce(Scan("orders", "o"), monoid, head)
        row_result, _ = _run(tables, plan, "row", fmt)
        vec_result, _ = _run(tables, plan, "vectorized", fmt)
        assert _normalize(row_result) == _normalize(vec_result)


class TestShortCircuit:
    """``and``/``or`` must guard the right side exactly like the row path."""

    ROWS = [
        {"kind": 1, "val": 5},
        {"kind": 0, "val": "oops"},  # comparing this with < 10 would raise
        {"kind": 1, "val": 50},
    ]

    def _both(self, predicate):
        plan = Select(Scan("t", "r"), predicate)
        row = Executor(Cluster(num_nodes=2), {"t": self.ROWS}).execute(plan)
        vec = Executor(
            Cluster(num_nodes=2),
            {"t": self.ROWS},
            config=PhysicalConfig(execution="vectorized"),
        ).execute(plan)
        return _normalize(row), _normalize(vec)

    def test_and_guards_right_side(self):
        pred = BinOp(
            "and",
            BinOp("==", Proj(Var("r"), "kind"), Const(1)),
            BinOp("<", Proj(Var("r"), "val"), Const(10)),
        )
        row, vec = self._both(pred)
        assert row == vec and len(row) == 1

    def test_or_guards_right_side(self):
        pred = BinOp(
            "or",
            BinOp("==", Proj(Var("r"), "kind"), Const(0)),
            BinOp("<", Proj(Var("r"), "val"), Const(10)),
        )
        # Row 1 ("oops") is decided by the left side; the right side must
        # not be evaluated for it.
        row, vec = self._both(pred)
        assert row == vec and len(row) == 2


class TestCostProfile:
    def test_vectorized_is_cheaper_at_scale(self):
        big = [
            {"k": i % 50, "v": float(i)} for i in range(5000)
        ]
        plan = Nest(
            Scan("t", "r"),
            key=Proj(Var("r"), "k"),
            aggregates=(("s", SumMonoid(), Proj(Var("r"), "v")),),
            var="g",
        )
        row_ex = Executor(Cluster(), {"t": big}, config=PhysicalConfig())
        vec_ex = Executor(
            Cluster(), {"t": big}, config=PhysicalConfig(execution="vectorized")
        )
        assert _normalize(row_ex.execute(plan)) == _normalize(vec_ex.execute(plan))
        assert (
            vec_ex.cluster.metrics.simulated_time
            < row_ex.cluster.metrics.simulated_time
        )

    def test_row_path_records_no_batches(self):
        ex = Executor(Cluster(num_nodes=2), {"t": ORDERS})
        ex.execute(Scan("t", "r"))
        assert ex.cluster.metrics.batches_processed == 0


class TestFallback:
    def test_unnest_plan_falls_back_but_vectorizes_child(self):
        nested = [{"id": i, "tags": [f"t{i}", f"t{i+1}"]} for i in range(10)]
        plan = Unnest(
            Select(Scan("t", "r"), BinOp("<", Proj(Var("r"), "id"), Const(8))),
            path=Proj(Var("r"), "tags"),
            var="tag",
        )
        row_ex = Executor(Cluster(num_nodes=2), {"t": nested})
        vec_ex = Executor(
            Cluster(num_nodes=2),
            {"t": nested},
            config=PhysicalConfig(execution="vectorized"),
        )
        assert _normalize(row_ex.execute(plan)) == _normalize(vec_ex.execute(plan))
        # The Select/Scan subtree still ran vectorized under the row Unnest.
        assert vec_ex.cluster.metrics.batches_processed > 0

    def test_non_uniform_records_not_claimed(self):
        ragged = [{"a": 1}, {"a": 2, "b": 3}]
        ex = Executor(
            Cluster(num_nodes=2),
            {"t": ragged},
            config=PhysicalConfig(execution="vectorized"),
        )
        vec = VectorizedExecutor(ex)
        assert not vec.supports(Scan("t", "r"))
        # Execution still works via the row path.
        assert len(ex.execute(Scan("t", "r")).collect()) == 2

    def test_theta_join_not_claimed(self):
        ex = Executor(
            Cluster(num_nodes=2),
            {"t": ORDERS},
            config=PhysicalConfig(execution="vectorized"),
        )
        vec = VectorizedExecutor(ex)
        theta = Join(
            Scan("t", "a"),
            Scan("t", "b"),
            predicate=BinOp("<", Proj(Var("a"), "okey"), Proj(Var("b"), "okey")),
        )
        assert not vec.supports(theta)

    def test_sort_grouping_not_claimed(self):
        ex = Executor(
            Cluster(num_nodes=2),
            {"t": ORDERS},
            config=PhysicalConfig(execution="vectorized", grouping="sort"),
        )
        vec = VectorizedExecutor(ex)
        assert not vec.supports(NEST_PLAN)


class TestCleaningFastPaths:
    def _fd_data(self):
        return [
            {
                "addr": f"a{i % 9}",
                "phone": f"{i % 9}{i % 4}-555",
                "nation": i % 4,
                "_rid": i,
            }
            for i in range(80)
        ]

    def _norm_violations(self, violations):
        return sorted(
            (
                repr(v.key),
                sorted(map(repr, v.rhs_values)),
                sorted(map(repr, v.records)),
            )
            for v in violations
        )

    def test_fd_columnar_matches_row(self):
        records = self._fd_data()
        row_cluster, vec_cluster = Cluster(4), Cluster(4)
        ds = row_cluster.parallelize(records, fmt="csv", name="t")
        row = check_fd(ds, ["addr"], ["nation"]).collect()
        vec = check_fd_columnar(vec_cluster, records, ["addr"], ["nation"], fmt="csv").collect()
        assert self._norm_violations(row) == self._norm_violations(vec)
        assert vec_cluster.metrics.simulated_time < row_cluster.metrics.simulated_time
        assert vec_cluster.metrics.batches_processed > 0

    def test_fd_columnar_computed_attribute(self):
        records = self._fd_data()
        prefix = lambda r: r["phone"][:1]
        row_cluster, vec_cluster = Cluster(4), Cluster(4)
        ds = row_cluster.parallelize(records, name="t")
        row = check_fd(ds, ["addr"], [prefix]).collect()
        vec = check_fd_columnar(vec_cluster, records, ["addr"], [prefix]).collect()
        assert self._norm_violations(row) == self._norm_violations(vec)

    def test_fd_columnar_heterogeneous_fallback(self):
        ragged = [{"a": 1, "b": 1}, {"a": 1, "c": 2}]
        cluster = Cluster(2)
        out = run_check(
            cluster, "fd", ragged, "vectorized", name="t", lhs=["a"], rhs=["b"]
        ).collect()
        assert len(out) == 1  # b: 1 vs None (missing) conflict, via row path
        assert cluster.metrics.batches_processed == 0

    def test_dedup_columnar_matches_row(self):
        records = [
            {
                "_rid": i,
                "journal": f"j{i % 3}",
                "title": f"title {i % 10}",
                "pages": f"{i}-{i + 9}",
                "authors": f"author {i % 6}",
            }
            for i in range(40)
        ]
        row_cluster, vec_cluster = Cluster(4), Cluster(4)
        ds = row_cluster.parallelize(records, fmt="json", name="t")
        block = ("journal", "title")
        row = deduplicate(
            ds, ["pages", "authors"], theta=0.3, block_on=block
        ).collect()
        vec = deduplicate_columnar(
            vec_cluster, records, ["pages", "authors"], theta=0.3,
            block_on=block, fmt="json",
        ).collect()
        norm = lambda pairs: sorted((p.left_id, p.right_id, repr(p.left), repr(p.right)) for p in pairs)
        assert norm(row) == norm(vec)
        assert row_cluster.metrics.comparisons == vec_cluster.metrics.comparisons
        assert vec_cluster.metrics.simulated_time < row_cluster.metrics.simulated_time

    def test_dedup_columnar_default_blocking_stringifies(self):
        # Default blocking (no block_on) keys on str(value): 1 and "1" must
        # land in the same block on both backends.
        records = [
            {"_rid": 0, "a": 1, "b": "x"},
            {"_rid": 1, "a": "1", "b": "x"},
            {"_rid": 2, "a": 1, "b": "x"},
        ]
        row_cluster, vec_cluster = Cluster(2), Cluster(2)
        ds = row_cluster.parallelize(records, name="t")
        row = deduplicate(ds, ["a", "b"], theta=0.5).collect()
        vec = deduplicate_columnar(
            vec_cluster, records, ["a", "b"], theta=0.5
        ).collect()
        norm = lambda pairs: sorted((p.left_id, p.right_id) for p in pairs)
        assert norm(row) == norm(vec)
        assert row_cluster.metrics.comparisons == vec_cluster.metrics.comparisons

    def test_dedup_columnar_assigns_rids(self):
        records = [
            {"name": f"x{i % 5}", "city": f"c{i % 2}"} for i in range(20)
        ]
        row_cluster, vec_cluster = Cluster(4), Cluster(4)
        ds = row_cluster.parallelize(records, name="t")
        row = deduplicate(ds, ["name"], theta=0.9, block_on="city").collect()
        vec = deduplicate_columnar(
            vec_cluster, records, ["name"], theta=0.9, block_on="city"
        ).collect()
        norm = lambda pairs: sorted((p.left_id, p.right_id) for p in pairs)
        assert norm(row) == norm(vec)


class TestLanguageLevel:
    def test_fd_query_parity(self):
        from repro import CleanDB

        rows = [
            {
                "name": f"cust{i}",
                "address": f"addr{i % 6}",
                "phone": f"{i % 6}{i % 3}-1234",
            }
            for i in range(50)
        ]
        sql = "SELECT * FROM customer c FD(c.address, c.phone)"
        row_db = CleanDB(num_nodes=4)
        row_db.register_table("customer", rows)
        vec_db = CleanDB(num_nodes=4, execution="vectorized")
        vec_db.register_table("customer", rows)
        row_out = row_db.execute(sql)
        vec_out = vec_db.execute(sql)
        assert set(row_out.branches) == set(vec_out.branches)
        for name in row_out.branches:
            assert sorted(map(repr, row_out.branch(name))) == sorted(
                map(repr, vec_out.branch(name))
            )

    def test_invalid_execution_rejected(self):
        from repro import CleanDB
        from repro.errors import PlanningError

        with pytest.raises(PlanningError):
            CleanDB(execution="gpu")

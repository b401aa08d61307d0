"""Unified three-way backend parity: row vs vectorized vs parallel.

Every supported pipeline — algebra plans, language-level CleanM queries, and
the System-level cleaning operations — runs through all three execution
backends over every storage format that can feed it (CSV, JSON, binary
columnar), and must produce identical normalized results.  The parallel
backend additionally guarantees *byte-identical ordered* output for the
FD-check and dedup pipelines (the determinism tests at the bottom), which
pins down nondeterministic merge ordering the normalized comparisons would
hide.

The worker count is configurable via ``REPRO_TEST_WORKERS`` (CI runs the
suite with 2); anything >= 2 exercises true multi-process execution.
"""

import pytest

from fixtures import WORKERS, dedup_clean_records, fd_clean_records
from repro import CleanDB
from repro.algebra import Join, Nest, Reduce, Scan, Select
from repro.baselines import CleanDBSystem
from repro.cleaning.dedup import deduplicate, deduplicate_parallel
from repro.cleaning.denial import check_fd, check_fd_parallel
from repro.cleaning.ladder import run_check
from repro.engine import Cluster
from repro.engine.dataset import Dataset
from repro.monoid import (
    BagMonoid,
    BinOp,
    Const,
    CountMonoid,
    Proj,
    SetMonoid,
    SumMonoid,
    Var,
)
from repro.physical import Executor, PhysicalConfig
from repro.sources import Catalog, Field, Schema, write_records

BACKENDS = ("row", "vectorized", "parallel")
FORMATS = ("csv", "json", "columnar")

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

FD_RECORDS = fd_clean_records()
DEDUP_RECORDS = dedup_clean_records()


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


def _run_plan(tables, plan, execution):
    cluster = Cluster(num_nodes=4, workers=WORKERS if execution == "parallel" else None)
    ex = Executor(cluster, dict(tables), config=PhysicalConfig(execution=execution))
    try:
        result = ex.execute(plan)
        return _normalize(result), cluster
    finally:
        cluster.shutdown()


def _normalize(result):
    if isinstance(result, Dataset):
        return sorted(map(repr, result.collect()))
    if isinstance(result, dict):
        return {k: _normalize(v) for k, v in result.items()}
    return result


def _canon(value):
    """A canonical, order-insensitive-for-sets rendering of a result value.

    Sets and dicts compare by *content*; their iteration order is an
    implementation detail, and crossing a process boundary can legitimately
    change it (pickle rebuilds hash tables with a different insertion
    sequence).  Plain ``repr`` comparison would flag equal frozensets as
    different, so parity is asserted on this canonical form instead.
    """
    if isinstance(value, dict):
        items = sorted(
            ((repr(k), _canon(v)) for k, v in value.items()), key=lambda kv: kv[0]
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "set{" + ", ".join(sorted(_canon(v) for v in value)) + "}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_canon(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(_canon(v) for v in value) + "]"
    return repr(value)


FILTER_PLAN = Select(
    Scan("orders", "o"),
    BinOp(
        "and",
        BinOp(">", Proj(Var("o"), "price"), Const(120.0)),
        BinOp("<", Proj(Var("o"), "qty"), Const(5)),
    ),
)
JOIN_PLAN = Join(
    Select(Scan("orders", "o"), BinOp(">", Proj(Var("o"), "price"), Const(110.0))),
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
PLANS = {
    "filter": FILTER_PLAN,
    "join": JOIN_PLAN,
    "nest": NEST_PLAN,
    "reduce_sum": Reduce(Scan("orders", "o"), SumMonoid(), Proj(Var("o"), "price")),
    "reduce_count": Reduce(Scan("orders", "o"), CountMonoid(), Var("o")),
    "reduce_bag": Reduce(Scan("orders", "o"), BagMonoid(), Proj(Var("o"), "cust")),
    "reduce_set": Reduce(Scan("orders", "o"), SetMonoid(), Proj(Var("o"), "cust")),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_plan_parity_across_backends_and_formats(tmp_path, fmt, plan_name):
    """Every supported plan shape: three backends, one answer."""
    plan = PLANS[plan_name]
    tables = _materialized_tables(tmp_path, fmt)
    results = {}
    clusters = {}
    for backend in BACKENDS:
        results[backend], clusters[backend] = _run_plan(tables, plan, backend)
    assert results["row"] == results["vectorized"] == results["parallel"]
    # The non-row runs actually exercised their backends.
    assert clusters["vectorized"].metrics.batches_processed > 0
    assert clusters["parallel"].metrics.measured_time > 0.0
    assert clusters["row"].metrics.measured_time == 0.0


LANGUAGE_QUERIES = {
    "fd": "SELECT * FROM customer c FD(c.address, c.phone)",
    "fd_computed": "SELECT * FROM customer c FD(c.address, prefix(c.phone))",
    "dedup": "SELECT * FROM customer c DEDUP(exact, LD, 0.7, c.address)",
    "multi_operator": (
        "SELECT * FROM customer c "
        "FD(c.address, c.phone) DEDUP(exact, LD, 0.7, c.address)"
    ),
}


@pytest.mark.parametrize("query_name", sorted(LANGUAGE_QUERIES))
def test_language_level_parity(query_name):
    """Whole CleanM queries agree branch-for-branch across backends."""
    sql = LANGUAGE_QUERIES[query_name]
    rows = [
        {
            "name": f"cust{i}",
            "address": f"addr{i % 6}",
            "phone": f"{i % 6}{i % 3}-1234",
        }
        for i in range(50)
    ]
    outputs = {}
    for backend in BACKENDS:
        db = CleanDB(num_nodes=4, execution=backend, workers=WORKERS)
        db.register_table("customer", rows)
        try:
            # Canonical form, not raw repr: set-valued aggregates (FD's
            # `partition` frozensets) keep their contents but may change
            # iteration order after crossing a worker process boundary.
            outputs[backend] = {
                name: sorted(_canon(row) for row in branch_rows)
                for name, branch_rows in db.execute(sql).branches.items()
            }
        finally:
            db.close()
    assert outputs["row"] == outputs["vectorized"] == outputs["parallel"]


def _driver_outputs(op, records, fmt, **kwargs):
    """One cleaning operation through the backend ladder on every
    backend: canonicalised outputs, plus proof that the requested driver —
    not a silent row-path fallback (a ``uniform_dict_records`` miss, a
    shippability miss) — produced them."""
    outputs = {}
    for backend in BACKENDS:
        workers = WORKERS if backend == "parallel" else None
        with Cluster(num_nodes=4, workers=workers) as cluster:
            out = run_check(cluster, op, records, backend, name="t", fmt=fmt, **kwargs)
            outputs[backend] = sorted(_canon(row) for row in out.collect())
            metrics = cluster.metrics
            if backend == "vectorized":
                assert metrics.batches_processed > 0
            elif backend == "parallel":
                assert metrics.measured_time > 0.0
                assert cluster.pool.tasks_dispatched > 0
            else:
                assert metrics.batches_processed == 0
                assert metrics.measured_time == 0.0
    assert outputs["row"] == outputs["vectorized"] == outputs["parallel"]
    return outputs["row"]


@pytest.mark.parametrize("fmt", FORMATS)
def test_system_fd_parity(fmt):
    """System-level FD check: identical violations on all three backends."""
    results = {
        backend: CleanDBSystem(
            num_nodes=4, execution=backend, workers=WORKERS
        ).check_fd(FD_RECORDS, ["addr"], ["nation"], fmt=fmt)
        for backend in BACKENDS
    }
    assert all(r.ok for r in results.values())
    counts = {r.output_count for r in results.values()}
    assert len(counts) == 1 and counts != {0}
    violations = _driver_outputs("fd", FD_RECORDS, fmt, lhs=["addr"], rhs=["nation"])
    assert {len(violations)} == counts


@pytest.mark.parametrize("fmt", FORMATS)
def test_system_dc_parity(fmt):
    """System-level banded DC check: identical violations and identical
    candidate/examined counters on all three backends."""
    from repro.cleaning.denial import DenialConstraint, TuplePredicate

    psi = DenialConstraint(
        predicates=(
            TuplePredicate("price", "<", "price"),
            TuplePredicate("qty", ">", "qty"),
        ),
    )
    results = {
        backend: CleanDBSystem(
            num_nodes=4, execution=backend, workers=WORKERS
        ).check_dc(ORDERS, psi, fmt=fmt)
        for backend in BACKENDS
    }
    assert all(r.ok for r in results.values())
    counts = {r.output_count for r in results.values()}
    assert len(counts) == 1 and counts != {0}
    assert len({r.comparisons for r in results.values()}) == 1
    assert len({r.verified for r in results.values()}) == 1
    assert {len(_driver_outputs("dc", ORDERS, fmt, constraint=psi))} == counts


@pytest.mark.parametrize("fmt", FORMATS)
def test_system_dedup_parity(fmt):
    """System-level dedup: identical pairs and comparison counts."""
    dedup_args = dict(block_on=("journal", "title"), theta=0.3)
    results = {
        backend: CleanDBSystem(
            num_nodes=4, execution=backend, workers=WORKERS
        ).deduplicate(DEDUP_RECORDS, ["pages", "authors"], fmt=fmt, **dedup_args)
        for backend in BACKENDS
    }
    assert all(r.ok for r in results.values())
    counts = {r.output_count for r in results.values()}
    assert len(counts) == 1 and counts != {0}
    assert len({r.comparisons for r in results.values()}) == 1
    pairs = _driver_outputs(
        "dedup", DEDUP_RECORDS, fmt, attributes=["pages", "authors"], **dedup_args
    )
    assert {len(pairs)} == counts


class TestNoneRidMeansAbsent:
    """A ``_rid: None`` is an absent row id on every path.  The drivers'
    row-id rules had drifted: the columnar DC driver read the ``_rid``
    column raw where the others fell back to the row's position, so it
    found no violation at all, and dedup aliased every all-``None`` pair
    into a self pair on all three backends."""

    RULE = "t1.a == t2.a and t1.b < t2.b"

    @staticmethod
    def rows(**rid):
        return [
            {**rid, "a": i % 5, "b": i % 7, "name": f"name {i % 8}"}
            for i in range(60)
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_facade_treats_none_like_a_missing_key(self, backend):
        with CleanDB(num_nodes=4, execution=backend, workers=WORKERS) as db:
            db.register_table("none", self.rows(_rid=None))
            db.register_table("absent", self.rows())
            dc = db.check_dc("none", self.RULE)
            pairs = db.deduplicate("none", ["name"], block_on="a", theta=0.7)
            assert len(dc) == 305 and len(pairs) == 330
            rid_pairs = [(t1["_rid"], t2["_rid"]) for t1, t2 in dc]
            assert rid_pairs == [
                (t1["_rid"], t2["_rid"]) for t1, t2 in db.check_dc("absent", self.RULE)
            ]
            assert [(p.left_id, p.right_id) for p in pairs] == [
                (p.left_id, p.right_id)
                for p in db.deduplicate("absent", ["name"], block_on="a", theta=0.7)
            ]

    def test_drivers_agree_on_unregistered_none_rid_rows(self):
        from repro.cleaning.dc_kernel import parse_dc

        rows = self.rows(_rid=None)
        violations = _driver_outputs(
            "dc", rows, "memory", constraint=parse_dc(self.RULE)
        )
        assert len(violations) == 305
        pairs = _driver_outputs(
            "dedup", rows, "memory", attributes=["name"], block_on="a", theta=0.7
        )
        assert len(pairs) == 330

    def test_vectorized_repair_no_longer_reports_a_dirty_table_clean(self):
        with CleanDB(num_nodes=4, execution="vectorized") as db:
            db.register_table("t", self.rows(_rid=None))
            report = db.repair_dc("t", self.RULE)
            assert report.violations_found == 305
            assert report.residual_violations == 0
            assert db.check_dc("t", self.RULE) == []


class TestDeterminism:
    """Parallel output must be *byte-identical and ordered* like the serial
    row backend — catching nondeterministic merge ordering that normalized
    (sorted) comparisons cannot see."""

    def test_fd_pipeline_byte_identical(self):
        row_cluster = Cluster(4)
        ds = row_cluster.parallelize(FD_RECORDS, fmt="csv", name="lineitem")
        row = check_fd(ds, ["addr"], ["nation"]).collect()
        with Cluster(4, workers=WORKERS) as par_cluster:
            par = check_fd_parallel(
                par_cluster, FD_RECORDS, ["addr"], ["nation"], fmt="csv"
            ).collect()
            assert par_cluster.metrics.measured_time > 0.0
        assert repr(row) == repr(par)

    def test_fd_pipeline_stable_across_runs(self):
        outputs = []
        for _ in range(2):
            with Cluster(4, workers=WORKERS) as cluster:
                outputs.append(
                    repr(
                        check_fd_parallel(
                            cluster, FD_RECORDS, ["addr"], ["nation"]
                        ).collect()
                    )
                )
        assert outputs[0] == outputs[1]

    def test_dedup_pipeline_byte_identical(self):
        row_cluster = Cluster(4)
        ds = row_cluster.parallelize(DEDUP_RECORDS, fmt="json", name="input")
        row = deduplicate(
            ds, ["pages", "authors"], theta=0.3, block_on=("journal", "title")
        ).collect()
        with Cluster(4, workers=WORKERS) as par_cluster:
            par = deduplicate_parallel(
                par_cluster,
                DEDUP_RECORDS,
                ["pages", "authors"],
                theta=0.3,
                block_on=("journal", "title"),
                fmt="json",
            ).collect()
        assert repr(row) == repr(par)

    def test_dc_pipeline_byte_identical(self):
        from repro.cleaning.denial import (
            DenialConstraint,
            TuplePredicate,
            check_dc,
            check_dc_parallel,
        )

        psi = DenialConstraint(
            predicates=(
                TuplePredicate("price", "<", "price"),
                TuplePredicate("qty", ">", "qty"),
            ),
        )
        row_cluster = Cluster(4)
        ds = row_cluster.parallelize(ORDERS, fmt="csv", name="lineitem")
        row = check_dc(ds, psi, strategy="banded").collect()
        with Cluster(4, workers=WORKERS) as par_cluster:
            par = check_dc_parallel(par_cluster, ORDERS, psi, fmt="csv").collect()
            assert par_cluster.metrics.measured_time > 0.0
        assert repr(row) == repr(par)

    def test_dedup_without_rids_byte_identical(self):
        records = [{"name": f"x{i % 5}", "city": f"c{i % 2}"} for i in range(24)]
        row_cluster = Cluster(3)
        row = deduplicate(
            row_cluster.parallelize(records, name="input"),
            ["name"],
            theta=0.9,
            block_on="city",
        ).collect()
        with Cluster(3, workers=WORKERS) as par_cluster:
            par = deduplicate_parallel(
                par_cluster, records, ["name"], theta=0.9, block_on="city"
            ).collect()
        assert repr(row) == repr(par)

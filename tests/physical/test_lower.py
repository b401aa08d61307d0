"""Unit tests for the physical executor (algebra → engine, Table 2)."""

import pytest

from repro.algebra import Join, Nest, Reduce, Scan, Select, Unnest
from repro.engine import Cluster
from repro.errors import PlanningError, SchemaError
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


def executor(catalog, **kwargs):
    return Executor(Cluster(num_nodes=4), catalog, **kwargs)


PEOPLE = [
    {"name": "ann", "dept": "db", "salary": 10},
    {"name": "bob", "dept": "db", "salary": 20},
    {"name": "cal", "dept": "os", "salary": 30},
]
DEPTS = [{"id": "db", "floor": 1}, {"id": "os", "floor": 2}]


class TestScanSelect:
    def test_scan_binds_variable(self):
        ex = executor({"people": PEOPLE})
        out = ex.execute(Scan("people", "p")).collect()
        assert all(set(env) == {"p"} for env in out)

    def test_unknown_table(self):
        with pytest.raises(SchemaError):
            executor({}).execute(Scan("nope", "x"))

    def test_select_filters(self):
        ex = executor({"people": PEOPLE})
        plan = Select(
            Scan("people", "p"),
            BinOp(">", Proj(Var("p"), "salary"), Const(15)),
        )
        assert len(ex.execute(plan).collect()) == 2

    def test_scan_cached_per_table_var(self):
        ex = executor({"people": PEOPLE})
        a = ex.execute(Scan("people", "p"))
        b = ex.execute(Scan("people", "p"))
        assert a is b


class TestReduce:
    def test_sum_reduce_returns_scalar(self):
        ex = executor({"people": PEOPLE})
        plan = Reduce(Scan("people", "p"), SumMonoid(), Proj(Var("p"), "salary"))
        assert ex.execute(plan) == 60

    def test_count_reduce(self):
        ex = executor({"people": PEOPLE})
        plan = Reduce(Scan("people", "p"), CountMonoid(), Var("p"))
        assert ex.execute(plan) == 3

    def test_bag_reduce_returns_dataset(self):
        ex = executor({"people": PEOPLE})
        plan = Reduce(Scan("people", "p"), BagMonoid(), Proj(Var("p"), "name"))
        assert sorted(ex.execute(plan).collect()) == ["ann", "bob", "cal"]

    def test_set_reduce_dedupes(self):
        ex = executor({"people": PEOPLE})
        plan = Reduce(Scan("people", "p"), SetMonoid(), Proj(Var("p"), "dept"))
        assert sorted(ex.execute(plan).collect()) == ["db", "os"]

    def test_reduce_with_predicate(self):
        ex = executor({"people": PEOPLE})
        plan = Reduce(
            Scan("people", "p"),
            SumMonoid(),
            Proj(Var("p"), "salary"),
            predicate=BinOp("==", Proj(Var("p"), "dept"), Const("db")),
        )
        assert ex.execute(plan) == 30


class TestJoin:
    def test_equi_join_merges_envs(self):
        ex = executor({"people": PEOPLE, "depts": DEPTS})
        plan = Join(
            Scan("people", "p"),
            Scan("depts", "d"),
            left_keys=(Proj(Var("p"), "dept"),),
            right_keys=(Proj(Var("d"), "id"),),
        )
        out = ex.execute(plan).collect()
        assert len(out) == 3
        assert all({"p", "d"} <= set(env) for env in out)

    def test_outer_join_keeps_unmatched_left(self):
        ex = executor({"people": PEOPLE, "depts": [{"id": "db", "floor": 1}]})
        plan = Join(
            Scan("people", "p"),
            Scan("depts", "d"),
            left_keys=(Proj(Var("p"), "dept"),),
            right_keys=(Proj(Var("d"), "id"),),
            outer=True,
        )
        out = ex.execute(plan).collect()
        unmatched = [env for env in out if env["d"] is None]
        assert len(unmatched) == 1 and unmatched[0]["p"]["dept"] == "os"

    def test_theta_join_matrix(self):
        ex = executor({"people": PEOPLE})
        plan = Join(
            Scan("people", "p1"),
            Scan("people", "p2"),
            predicate=BinOp(
                "<", Proj(Var("p1"), "salary"), Proj(Var("p2"), "salary")
            ),
        )
        out = ex.execute(plan).collect()
        assert len(out) == 3  # 10<20, 10<30, 20<30

    def test_theta_join_cartesian_config(self):
        ex = executor({"people": PEOPLE}, config=PhysicalConfig(theta="cartesian"))
        plan = Join(
            Scan("people", "p1"),
            Scan("people", "p2"),
            predicate=Const(True),
        )
        assert len(ex.execute(plan).collect()) == 9


class TestUnnest:
    CATALOG = {
        "pubs": [
            {"title": "t1", "authors": ["a", "b"]},
            {"title": "t2", "authors": []},
        ]
    }

    def test_unnest_expands(self):
        ex = executor(self.CATALOG)
        plan = Unnest(Scan("pubs", "p"), Proj(Var("p"), "authors"), "a")
        out = ex.execute(plan).collect()
        assert sorted(env["a"] for env in out) == ["a", "b"]

    def test_outer_unnest_keeps_empty(self):
        ex = executor(self.CATALOG)
        plan = Unnest(
            Scan("pubs", "p"), Proj(Var("p"), "authors"), "a", outer=True
        )
        out = ex.execute(plan).collect()
        assert len(out) == 3
        assert any(env["a"] is None for env in out)

    def test_unnest_with_predicate(self):
        ex = executor(self.CATALOG)
        plan = Unnest(
            Scan("pubs", "p"),
            Proj(Var("p"), "authors"),
            "a",
            predicate=BinOp("==", Var("a"), Const("a")),
        )
        assert len(ex.execute(plan).collect()) == 1


class TestNest:
    def test_grouping_with_aggregates(self):
        ex = executor({"people": PEOPLE})
        plan = Nest(
            child=Scan("people", "p"),
            key=Proj(Var("p"), "dept"),
            aggregates=(
                ("total", SumMonoid(), Proj(Var("p"), "salary")),
                ("members", BagMonoid(), Proj(Var("p"), "name")),
            ),
            var="g",
        )
        out = {env["g"]["key"]: env["g"] for env in ex.execute(plan).collect()}
        assert out["db"]["total"] == 30
        assert sorted(out["db"]["members"]) == ["ann", "bob"]
        assert out["os"]["total"] == 30

    @pytest.mark.parametrize("grouping", ["aggregate", "sort", "hash"])
    def test_strategies_agree(self, grouping):
        ex = executor({"people": PEOPLE}, config=PhysicalConfig(grouping=grouping))
        plan = Nest(
            child=Scan("people", "p"),
            key=Proj(Var("p"), "dept"),
            aggregates=(("total", SumMonoid(), Proj(Var("p"), "salary")),),
            var="g",
        )
        out = {env["g"]["key"]: env["g"]["total"] for env in ex.execute(plan).collect()}
        assert out == {"db": 30, "os": 30}

    def test_multi_key_nest(self):
        ex = executor({"people": PEOPLE})
        plan = Nest(
            child=Scan("people", "p"),
            key=Call("tokenize", (Proj(Var("p"), "dept"), Const(1))),
            aggregates=(("cnt", CountMonoid(), Var("p")),),
            var="g",
        )
        plan.multi = True
        out = {env["g"]["key"]: env["g"]["cnt"] for env in ex.execute(plan).collect()}
        # dept "db" contributes to groups 'd' and 'b'; "os" to 'o' and 's'.
        assert out == {"d": 2, "b": 2, "o": 1, "s": 1}

    def test_group_predicate(self):
        ex = executor({"people": PEOPLE})
        plan = Nest(
            child=Scan("people", "p"),
            key=Proj(Var("p"), "dept"),
            aggregates=(("cnt", CountMonoid(), Var("p")),),
            group_predicate=BinOp(">", Proj(Var("g"), "cnt"), Const(1)),
            var="g",
        )
        out = ex.execute(plan).collect()
        assert len(out) == 1 and out[0]["g"]["key"] == "db"

    def test_unknown_grouping_rejected(self):
        ex = executor({"people": PEOPLE}, config=PhysicalConfig(grouping="magic"))
        plan = Nest(
            child=Scan("people", "p"),
            key=Proj(Var("p"), "dept"),
            aggregates=(("cnt", CountMonoid(), Var("p")),),
        )
        with pytest.raises(PlanningError):
            ex.execute(plan)
        assert ex.cluster.metrics.ops == []  # rejected before the scan is charged


class TestFunctions:
    def test_prefix_builtin(self):
        from repro.physical import prefix

        assert prefix("0215551234") == "021"
        assert prefix(12345, 2) == "12"

    def test_registry_extensible(self):
        from repro.physical import DEFAULT_FUNCTIONS, register_function

        register_function("shout", lambda s: str(s).upper())
        assert DEFAULT_FUNCTIONS["shout"]("hi") == "HI"

    def test_distinct_count(self):
        from repro.physical.functions import DEFAULT_FUNCTIONS

        assert DEFAULT_FUNCTIONS["distinct_count"]([1, 1, 2, {"a": 1}, {"a": 1}]) == 3

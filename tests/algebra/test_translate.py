"""Unit tests for comprehension → algebra translation."""

import pytest

from repro.algebra import (
    Join,
    Nest,
    Reduce,
    Scan,
    Select,
    Translator,
    Unnest,
    conjoin,
    is_grouping,
    make_group_comprehension,
)
from repro.errors import PlanningError
from repro.monoid import (
    BagMonoid,
    BinOp,
    Bind,
    Comprehension,
    Const,
    Filter,
    Generator,
    Proj,
    SumMonoid,
    Var,
    normalize,
)


@pytest.fixture
def translator():
    return Translator({"customer", "orders", "dictionary"})


def comp(monoid, head, *qualifiers):
    return Comprehension(monoid, head, tuple(qualifiers))


class TestConjuncts:
    def test_conjoin_empty_is_true(self):
        assert conjoin([]) == Const(True)

    def test_conjoin_round_trip(self):
        a, b = Var("a"), Var("b")
        assert conjoin([a, b]) == BinOp("and", a, b)


class TestScanTranslation:
    def test_single_generator_becomes_scan_reduce(self, translator):
        c = comp(BagMonoid(), Var("c"), Generator("c", Var("customer")))
        plan = translator.translate(c)
        assert isinstance(plan, Reduce)
        assert isinstance(plan.child, Scan)
        assert plan.child.table == "customer"

    def test_filter_becomes_select(self, translator):
        c = comp(
            BagMonoid(),
            Var("c"),
            Generator("c", Var("customer")),
            Filter(BinOp(">", Proj(Var("c"), "age"), Const(10))),
        )
        plan = translator.translate(c)
        assert isinstance(plan.child, Select)

    def test_unknown_table_rejected(self, translator):
        c = comp(BagMonoid(), Var("x"), Generator("x", Var("nope")))
        with pytest.raises(PlanningError):
            translator.translate(c)

    def test_leftover_bind_rejected(self, translator):
        c = comp(
            BagMonoid(), Var("y"),
            Generator("x", Var("customer")), Bind("y", Var("x")),
        )
        with pytest.raises(PlanningError):
            translator.translate(c)

    def test_no_generators_rejected(self, translator):
        with pytest.raises(PlanningError):
            translator.translate(comp(SumMonoid(), Const(1)))


class TestJoinTranslation:
    def test_two_generators_become_join(self, translator):
        c = comp(
            BagMonoid(),
            Var("c"),
            Generator("c", Var("customer")),
            Generator("o", Var("orders")),
        )
        plan = translator.translate(c)
        assert isinstance(plan.child, Join)

    def test_cross_table_equality_becomes_equi_key(self, translator):
        c = comp(
            BagMonoid(),
            Var("c"),
            Generator("c", Var("customer")),
            Generator("o", Var("orders")),
            Filter(
                BinOp("==", Proj(Var("c"), "id"), Proj(Var("o"), "custid"))
            ),
        )
        plan = translator.translate(c)
        join = plan.child
        assert isinstance(join, Join)
        assert join.left_keys == (Proj(Var("c"), "id"),)
        assert join.right_keys == (Proj(Var("o"), "custid"),)

    def test_single_side_filter_pushed_into_branch(self, translator):
        c = comp(
            BagMonoid(),
            Var("c"),
            Generator("c", Var("customer")),
            Generator("o", Var("orders")),
            Filter(BinOp(">", Proj(Var("o"), "total"), Const(100))),
        )
        plan = translator.translate(c)
        join = plan.child
        assert isinstance(join.right, Select)


class TestGroupingTranslation:
    def test_grouping_comprehension_is_detected(self):
        g = make_group_comprehension(
            key=Proj(Var("c"), "addr"),
            value=Var("c"),
            qualifiers=(Generator("c", Var("customer")),),
        )
        assert is_grouping(g)

    def test_non_grouping_not_detected(self):
        c = comp(BagMonoid(), Var("x"), Generator("x", Var("customer")))
        assert not is_grouping(c)

    def test_grouping_translates_to_nest(self, translator):
        g = make_group_comprehension(
            key=Proj(Var("c"), "addr"),
            value=Var("c"),
            qualifiers=(Generator("c", Var("customer")),),
        )
        plan = translator.translate(g)
        assert isinstance(plan, Nest)
        assert plan.key == Proj(Var("c"), "addr")
        assert plan.aggregates[0][0] == "partition"

    def test_generator_over_grouping_binds_nest_var(self, translator):
        g = make_group_comprehension(
            key=Proj(Var("c"), "addr"),
            value=Var("c"),
            qualifiers=(Generator("c", Var("customer")),),
        )
        outer = comp(BagMonoid(), Var("grp"), Generator("grp", g))
        plan = translator.translate(outer)
        assert isinstance(plan, Reduce)
        assert isinstance(plan.child, Nest)
        assert plan.child.var == "grp"

    def test_multi_grouping_sets_flag(self, translator):
        from repro.monoid import Call

        g = make_group_comprehension(
            key=Call("tokenize", (Proj(Var("c"), "name"),)),
            value=Var("c"),
            qualifiers=(Generator("c", Var("customer")),),
            multi=True,
        )
        plan = translator.translate(g)
        assert getattr(plan, "multi", False) is True

    def test_unnest_of_group_partition(self, translator):
        g = make_group_comprehension(
            key=Proj(Var("c"), "addr"),
            value=Var("c"),
            qualifiers=(Generator("c", Var("customer")),),
        )
        outer = comp(
            BagMonoid(),
            Var("p"),
            Generator("grp", g),
            Generator("p", Proj(Var("grp"), "partition")),
        )
        plan = translator.translate(normalize(outer))
        assert isinstance(plan.child, Unnest)

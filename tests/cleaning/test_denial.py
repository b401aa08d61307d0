"""Unit tests for FD and denial-constraint checking."""

import pickle

import pytest

from repro.cleaning import (
    DenialConstraint,
    SingleFilter,
    TuplePredicate,
    check_dc,
    check_fd,
)
from repro.cleaning.dc_kernel import null_safe_compare, parse_dc, plan_dc
from repro.engine import Cluster


@pytest.fixture
def cluster():
    return Cluster(num_nodes=4)


def fd_records():
    # address -> nationkey violated for addr0 (two nation keys).
    return [
        {"address": "addr0", "nationkey": 1, "phone": "111-a"},
        {"address": "addr0", "nationkey": 2, "phone": "111-b"},
        {"address": "addr1", "nationkey": 3, "phone": "222-a"},
        {"address": "addr1", "nationkey": 3, "phone": "222-b"},
    ]


class TestCheckFD:
    @pytest.mark.parametrize("grouping", ["aggregate", "sort", "hash"])
    def test_detects_violation_group(self, cluster, grouping):
        ds = cluster.parallelize(fd_records())
        violations = check_fd(ds, ["address"], ["nationkey"], grouping=grouping).collect()
        assert len(violations) == 1
        assert violations[0].key == "addr0"
        assert set(violations[0].rhs_values) == {1, 2}

    def test_no_violations_on_clean_data(self, cluster):
        clean = [{"a": i, "b": i * 2} for i in range(10)]
        ds = cluster.parallelize(clean)
        assert check_fd(ds, ["a"], ["b"]).collect() == []

    def test_compound_lhs(self, cluster):
        records = [
            {"x": 1, "y": 1, "z": "p"},
            {"x": 1, "y": 2, "z": "q"},
            {"x": 1, "y": 1, "z": "r"},  # violates (x,y) -> z with the first
        ]
        ds = cluster.parallelize(records)
        violations = check_fd(ds, ["x", "y"], ["z"]).collect()
        assert len(violations) == 1
        assert violations[0].key == (1, 1)

    def test_computed_lhs_with_callable(self, cluster):
        # FD: prefix(phone) determines address - paper's FD1 shape reversed.
        records = [
            {"address": "a", "phone": "111-x"},
            {"address": "b", "phone": "111-y"},
        ]
        ds = cluster.parallelize(records)
        violations = check_fd(
            ds, [lambda r: r["phone"][:3]], ["address"]
        ).collect()
        assert len(violations) == 1

    def test_violation_keeps_witness_records(self, cluster):
        ds = cluster.parallelize(fd_records())
        [violation] = check_fd(ds, ["address"], ["nationkey"]).collect()
        assert len(violation.records) == 2

    def test_keep_records_false_drops_witnesses(self, cluster):
        ds = cluster.parallelize(fd_records())
        [violation] = check_fd(
            ds, ["address"], ["nationkey"], keep_records=False
        ).collect()
        assert violation.records == ()

    def test_unknown_grouping_rejected(self, cluster):
        ds = cluster.parallelize(fd_records())
        before = list(cluster.metrics.ops)
        with pytest.raises(ValueError):
            check_fd(ds, ["address"], ["nationkey"], grouping="merge")
        assert cluster.metrics.ops == before  # rejected before anything is charged

    def test_aggregate_and_sort_agree(self, cluster):
        records = [{"k": i % 5, "v": i % 7} for i in range(70)]
        a = check_fd(cluster.parallelize(records), ["k"], ["v"], grouping="aggregate").collect()
        b = check_fd(cluster.parallelize(records), ["k"], ["v"], grouping="sort").collect()
        assert {v.key for v in a} == {v.key for v in b}
        assert {v.key: set(v.rhs_values) for v in a} == {
            v.key: set(v.rhs_values) for v in b
        }


def dc_records():
    return [
        {"price": 10.0, "discount": 0.05},
        {"price": 20.0, "discount": 0.01},  # violated with the first row
        {"price": 30.0, "discount": 0.10},
    ]


PSI = DenialConstraint(
    predicates=(
        TuplePredicate("price", "<", "price"),
        TuplePredicate("discount", ">", "discount"),
    ),
)


class TestCheckDC:
    @pytest.mark.parametrize("strategy", ["banded", "matrix", "cartesian", "minmax"])
    def test_strategies_find_same_violations(self, strategy):
        cluster = Cluster(num_nodes=4)
        ds = cluster.parallelize(dc_records())
        pairs = check_dc(ds, PSI, strategy=strategy).collect()
        found = {(t1["price"], t2["price"]) for t1, t2 in pairs}
        assert found == {(10.0, 20.0)}

    def test_left_filter_applied(self):
        cluster = Cluster(num_nodes=4)
        constrained = DenialConstraint(
            predicates=PSI.predicates,
            left_filters=(SingleFilter("price", "<", 15.0),),
        )
        ds = cluster.parallelize(dc_records())
        pairs = check_dc(ds, constrained, strategy="matrix").collect()
        assert all(t1["price"] < 15.0 for t1, _ in pairs)

    def test_minmax_does_not_push_filter(self):
        # BigDansing treats the rule as a black-box UDF: the left filter is
        # evaluated inside the predicate, so results agree with the pushed
        # plans even though nothing was pruned.
        constrained = DenialConstraint(
            predicates=PSI.predicates,
            left_filters=(SingleFilter("price", "<", 15.0),),
        )
        c1, c2 = Cluster(num_nodes=4), Cluster(num_nodes=4)
        matrix = check_dc(c1.parallelize(dc_records()), constrained, "matrix").collect()
        minmax = check_dc(c2.parallelize(dc_records()), constrained, "minmax").collect()
        key = lambda pairs: {(a["price"], b["price"]) for a, b in pairs}
        assert key(matrix) == key(minmax)
        # ...but BigDansing paid for far more work.
        assert c2.metrics.comparisons > c1.metrics.comparisons

    def test_self_pairs_excluded(self):
        cluster = Cluster(num_nodes=4)
        same = [{"price": 10.0, "discount": 0.05}] * 3
        ds = cluster.parallelize(same)
        assert check_dc(ds, PSI, strategy="matrix").collect() == []

    def test_violated_by_semantics(self):
        t1 = {"price": 1.0, "discount": 0.9}
        t2 = {"price": 2.0, "discount": 0.1}
        assert PSI.violated_by(t1, t2)
        assert not PSI.violated_by(t2, t1)
        assert not PSI.violated_by(t1, t1)

    def test_banded_prunes_examined_pairs(self):
        cluster = Cluster(num_nodes=4)
        records = [
            {"price": float(i), "discount": ((3 * i) % 7) / 10} for i in range(40)
        ]
        pairs = check_dc(cluster.parallelize(records), PSI, "banded").collect()
        assert pairs
        # The examined count (verified) sits strictly below the pair
        # universe (comparisons) — the banded range scan pruned.
        assert 0 < cluster.metrics.verified < cluster.metrics.comparisons


class TestNullSafety:
    """Regression: ordered comparisons on missing/None attributes used to
    raise ``TypeError`` (``None < 5``); they are three-valued now."""

    def test_tuple_predicate_null_on_either_side(self):
        pred = TuplePredicate("price", "<", "price")
        assert pred.holds({"price": 1.0}, {"price": 2.0})
        assert not pred.holds({"price": None}, {"price": 2.0})
        assert not pred.holds({"price": 1.0}, {"price": None})
        assert not pred.holds({"price": None}, {"price": None})
        assert not pred.holds({}, {"price": 2.0})  # missing attribute
        assert not pred.holds({"price": 1.0}, {})

    def test_single_filter_null(self):
        cap = SingleFilter("price", "<", 15.0)
        assert cap.holds({"price": 1.0})
        assert not cap.holds({"price": None})
        assert not cap.holds({})

    def test_equality_with_null_never_satisfies(self):
        # SQL three-valued logic: NULL = NULL is unknown, not a violation.
        pred = TuplePredicate("zip", "==", "zip")
        assert not pred.holds({"zip": None}, {"zip": None})
        ne = TuplePredicate("zip", "!=", "zip")
        assert not ne.holds({"zip": None}, {"zip": 1})

    def test_null_safe_compare_table(self):
        for op in ("<", "<=", ">", ">=", "==", "!="):
            assert not null_safe_compare(op, None, 1)
            assert not null_safe_compare(op, 1, None)
        assert null_safe_compare("<", 1, 2)
        assert not null_safe_compare("<", 2, 1)

    @pytest.mark.parametrize("strategy", ["banded", "matrix", "cartesian", "minmax"])
    def test_check_dc_survives_nulls_on_both_tuple_sides(self, strategy):
        records = [
            {"price": None, "discount": 0.5},
            {"price": 10.0, "discount": None},
            {"price": 10.0, "discount": 0.05},
            {"price": 20.0, "discount": 0.01},  # violates with the row above
            {"price": None, "discount": None},
        ]
        cluster = Cluster(num_nodes=4)
        pairs = check_dc(cluster.parallelize(records), PSI, strategy).collect()
        found = {(t1["price"], t2["price"]) for t1, t2 in pairs}
        assert found == {(10.0, 20.0)}
        # No null tuple ever takes part in a violation.
        for t1, t2 in pairs:
            assert t1["price"] is not None and t2["price"] is not None

    def test_nan_band_values_match_oracle(self):
        # NaN never satisfies a comparison but corrupts sorted-list
        # bisection; the kernel must treat it like a null.
        nan = float("nan")
        records = [
            {"a": nan, "b": 1, "_rid": 0},
            {"a": 1.0, "b": 2, "_rid": 1},
            {"a": 2.0, "b": 1, "_rid": 2},
            {"a": nan, "b": 0, "_rid": 3},
            {"a": 0.5, "b": 9, "_rid": 4},
        ]
        constraint = DenialConstraint(
            predicates=(
                TuplePredicate("a", "<", "a"),
                TuplePredicate("b", ">", "b"),
            ),
        )
        cluster = Cluster(num_nodes=3)
        got = {
            (t1["_rid"], t2["_rid"])
            for t1, t2 in check_dc(
                cluster.parallelize(records), constraint, "banded"
            ).collect()
        }
        assert got == {(1, 2), (4, 1), (4, 2)}

    def test_left_filter_with_nulls(self):
        constrained = DenialConstraint(
            predicates=PSI.predicates,
            left_filters=(SingleFilter("price", "<", 15.0),),
        )
        records = [
            {"price": None, "discount": 0.9},
            {"price": 10.0, "discount": 0.05},
            {"price": 20.0, "discount": 0.01},
        ]
        cluster = Cluster(num_nodes=4)
        pairs = check_dc(
            cluster.parallelize(records), constrained, "banded"
        ).collect()
        assert {(a["price"], b["price"]) for a, b in pairs} == {(10.0, 20.0)}


class TestStableRowIds:
    """Regression: ``violated_by`` deduped self pairs by object identity,
    which breaks once records are pickled through the parallel backend."""

    def test_self_pair_by_rid_survives_pickling(self):
        row = {"price": 10.0, "discount": 0.05, "_rid": 7}
        clone = pickle.loads(pickle.dumps(row))
        assert row is not clone
        # A symmetric tautological rule would pair a row with its own copy
        # if identity were the only guard.
        anything = DenialConstraint(
            predicates=(TuplePredicate("price", "<=", "price"),),
        )
        assert not anything.violated_by(row, clone)
        assert not anything.violated_by(clone, row)

    def test_distinct_rows_with_equal_values_still_pair(self):
        a = {"price": 10.0, "discount": 0.05, "_rid": 1}
        b = {"price": 10.0, "discount": 0.05, "_rid": 2}
        anything = DenialConstraint(
            predicates=(TuplePredicate("price", "<=", "price"),),
        )
        assert anything.violated_by(a, b)

    def test_mixed_rid_types_do_not_crash(self):
        # A string ``_rid`` next to an id-less row (positional int rid)
        # used to raise TypeError in the exactly-once comparison.
        records = [
            {"price": 10.0, "discount": 0.05, "_rid": "a7"},
            {"price": 20.0, "discount": 0.01},
        ]
        cluster = Cluster(num_nodes=3)
        pairs = check_dc(cluster.parallelize(records), PSI, "banded").collect()
        assert {(a["price"], b["price"]) for a, b in pairs} == {(10.0, 20.0)}

    def test_symmetric_violations_emitted_once_per_unordered_pair(self):
        # zip==zip and city!=city violates in both orders; the banded
        # kernel must report the unordered pair exactly once, rid-ordered.
        constraint = DenialConstraint(
            predicates=(
                TuplePredicate("zip", "==", "zip"),
                TuplePredicate("city", "!=", "city"),
            ),
        )
        records = [
            {"zip": 10, "city": "x", "_rid": 0},
            {"zip": 10, "city": "y", "_rid": 1},
            {"zip": 10, "city": "x", "_rid": 2},
        ]
        cluster = Cluster(num_nodes=4)
        pairs = check_dc(
            cluster.parallelize(records), constraint, "banded"
        ).collect()
        found = sorted((a["_rid"], b["_rid"]) for a, b in pairs)
        assert found == [(0, 1), (1, 2)]


class TestDCPlanner:
    def test_equality_becomes_prefix_and_band_selected(self):
        constraint = DenialConstraint(
            predicates=(
                TuplePredicate("c", "==", "c"),
                TuplePredicate("a", "<", "a"),
                TuplePredicate("b", "!=", "b"),
            ),
        )
        plan = plan_dc(constraint)
        assert plan.eq_idx == (0,)
        assert plan.band_idx == 1
        assert plan.residual_idx == (2,)
        assert "c==c" in plan.describe()

    def test_most_selective_band_wins(self):
        # ``a`` is constant (band keeps everything); ``b`` is strictly
        # increasing (band halves the candidates): the planner must band
        # on ``b``.
        constraint = DenialConstraint(
            predicates=(
                TuplePredicate("a", "<=", "a"),
                TuplePredicate("b", "<", "b"),
            ),
        )
        records = [{"a": 1, "b": i} for i in range(50)]
        plan = plan_dc(constraint, records)
        assert plan.band_idx == 1

    def test_parse_dc_round_trip(self):
        constraint = parse_dc(
            "t1.price < t2.price and t1.discount > t2.discount",
            where="t1.price < 1000",
            name="psi",
        )
        assert constraint.predicates == (
            TuplePredicate("price", "<", "price"),
            TuplePredicate("discount", ">", "discount"),
        )
        assert constraint.left_filters == (SingleFilter("price", "<", 1000),)
        assert constraint.name == "psi"

    def test_parse_dc_case_insensitive_and(self):
        constraint = parse_dc(
            "t1.price < t2.price AND t1.discount > t2.discount"
        )
        assert len(constraint.predicates) == 2
        assert constraint.predicates[1] == TuplePredicate("discount", ">", "discount")

    def test_parse_dc_reads_sql_equals_as_equality(self):
        # CleanM's own WHERE writes equality with a single "=".
        constraint = parse_dc(
            "t1.zip = t2.zip and t1.price <= t2.price and t1.city != t2.city",
            where="t1.zip = 10",
        )
        assert constraint == parse_dc(
            "t1.zip == t2.zip and t1.price <= t2.price and t1.city != t2.city",
            where="t1.zip == 10",
        )
        assert [p.op for p in constraint.predicates] == ["==", "<=", "!="]
        assert constraint.left_filters == (SingleFilter("zip", "==", 10),)

    def test_parse_dc_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_dc("t1.price ~ t2.price")
        with pytest.raises(ValueError):
            parse_dc("price < t2.price")
        with pytest.raises(ValueError):
            parse_dc("")
        # An unknown conjunction must fail loudly, never silently parse
        # into a garbage attribute name that matches nothing.
        with pytest.raises(ValueError):
            parse_dc("t1.price < t2.price OR t1.discount > t2.discount")


class TestRecordExtractor:
    """Roles that read the same values share one tuple (what a session's
    derived DC state retains per row); sharing never changes a verdict."""

    RECORD = {"a": 1, "b": 2, "c": 3}

    @pytest.mark.parametrize(
        "rule, where, shares_rvals, shares_fvals",
        [
            ("t1.a < t2.a and t1.b > t2.b", "t1.a < 5", True, True),  # rule psi: one tuple
            ("t1.a < t2.a and t1.b > t2.b", "", True, False),  # () is shared already
            ("t1.a < t2.a and t1.b > t2.b", "t1.b < 5", True, False),  # not a prefix
            ("t1.a < t2.a and t1.b > t2.b", "t1.a < 5 and t1.c > 0", True, False),
            ("t1.a < t2.b", "t1.a < 5", False, True),
            ("t1.a < t2.b", "t1.c == 3", False, False),
        ],
    )
    def test_roles_reading_the_same_values_share_one_tuple(
        self, rule, where, shares_rvals, shares_fvals
    ):
        from repro.cleaning.dc_kernel import left_filter, record_extractor

        constraint = parse_dc(rule, where=where)
        entry = record_extractor(constraint)(7, self.RECORD)
        get = self.RECORD.get
        assert entry.lvals == tuple(get(p.left_attr) for p in constraint.predicates)
        assert entry.rvals == tuple(get(p.right_attr) for p in constraint.predicates)
        filters = constraint.left_filters
        assert entry.fvals[: len(filters)] == tuple(get(f.attr) for f in filters)
        assert (entry.rvals is entry.lvals) == shares_rvals
        assert (entry.fvals is entry.lvals) == shares_fvals
        assert left_filter(constraint)(entry) == all(f.holds(self.RECORD) for f in filters)
        for failing in ({"a": 9, "b": 9, "c": -1}, {}):
            probe = record_extractor(constraint)(8, failing)
            assert left_filter(constraint)(probe) == all(f.holds(failing) for f in filters)


class TestImportStar:
    def test_import_star_matches_all(self):
        """``from repro.cleaning.denial import *`` exposes exactly
        ``__all__``, and every listed name resolves."""
        import repro.cleaning.denial as denial

        namespace: dict = {}
        exec("from repro.cleaning.denial import *", namespace)
        exported = {k for k in namespace if not k.startswith("_")}
        assert exported == set(denial.__all__)
        for name in denial.__all__:
            assert getattr(denial, name) is not None

    def test_package_surface_consistent(self):
        """The package-level re-exports stay in sync with the module."""
        import repro.cleaning as cleaning
        import repro.cleaning.denial as denial

        for name in (
            "DenialConstraint", "TuplePredicate", "SingleFilter",
            "check_dc", "check_dc_parallel", "check_dc_columnar",
        ):
            assert getattr(cleaning, name) is getattr(denial, name)
            assert name in cleaning.__all__

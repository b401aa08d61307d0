"""Unit tests for denial-constraint repair by relaxation."""

import pytest

from repro.cleaning.dc_kernel import (
    DenialConstraint,
    SingleFilter,
    TuplePredicate,
)
from repro.cleaning.denial import find_violations
from repro.cleaning.repair import repair_dc_by_relaxation

PSI = DenialConstraint(
    predicates=(
        TuplePredicate("price", "<", "price"),
        TuplePredicate("discount", ">", "discount"),
    ),
    name="psi",
)


class TestRepairDCByRelaxation:
    def test_simple_violation_repaired_by_nearest_value(self):
        records = [
            {"price": 10.0, "discount": 0.05},
            {"price": 20.0, "discount": 0.01},
        ]
        repaired, report = repair_dc_by_relaxation(records, PSI)
        assert report.violations_found == 1
        assert report.clean and report.residual_violations == 0
        assert find_violations(repaired, PSI) == []
        # Exactly one cell moved, and it moved to the *nearest* value that
        # falsifies its predicate (not to null, not far away).
        assert report.cells_changed == 1
        assert report.cells_nulled == 0
        changed = [
            (i, k)
            for i, (a, b) in enumerate(zip(records, repaired))
            for k in a
            if a[k] != b[k]
        ]
        assert len(changed) == 1
        i, attr = changed[0]
        if attr == "price":
            # Raising t1.price to the partner's price falsifies ``<``.
            assert repaired[i]["price"] == 20.0
        else:
            assert repaired[i][attr] in (0.01, 0.05)

    def test_input_records_not_mutated(self):
        records = [
            {"price": 10.0, "discount": 0.05},
            {"price": 20.0, "discount": 0.01},
        ]
        snapshot = [dict(r) for r in records]
        repair_dc_by_relaxation(records, PSI)
        assert records == snapshot

    def test_hub_violator_repaired_with_one_cell(self):
        # One cheap high-discount row violates against many others: the
        # greedy vertex cover should pick one of its cells, not dozens.
        records = [{"price": 1.0, "discount": 0.99}] + [
            {"price": float(10 + i), "discount": 0.0} for i in range(20)
        ]
        repaired, report = repair_dc_by_relaxation(records, PSI)
        assert report.violations_found == 20
        assert report.clean
        assert report.cover_size == 1
        assert report.cells_changed + report.cells_nulled == 1

    def test_left_filter_constraint(self):
        capped = DenialConstraint(
            predicates=PSI.predicates,
            left_filters=(SingleFilter("price", "<", 15.0),),
            name="psi_capped",
        )
        records = [
            {"price": 10.0, "discount": 0.05},
            {"price": 20.0, "discount": 0.01},
            {"price": 30.0, "discount": 0.10},  # above the cap: never t1
        ]
        repaired, report = repair_dc_by_relaxation(records, capped)
        assert report.clean
        assert find_violations(repaired, capped) == []

    def test_symmetric_constraint_with_equalities(self):
        constraint = DenialConstraint(
            predicates=(
                TuplePredicate("zip", "==", "zip"),
                TuplePredicate("city", "!=", "city"),
            ),
            name="zipcity",
        )
        records = [
            {"zip": 10, "city": "a"},
            {"zip": 10, "city": "b"},
            {"zip": 10, "city": "a"},
        ]
        repaired, report = repair_dc_by_relaxation(records, constraint)
        assert report.clean
        assert find_violations(repaired, constraint) == []

    def test_null_backstop_with_zero_rounds(self):
        # max_rounds=0 skips value relaxation entirely: the final round
        # nulls the cover, which can never create new violations.
        records = [
            {"price": 10.0, "discount": 0.05},
            {"price": 20.0, "discount": 0.01},
        ]
        repaired, report = repair_dc_by_relaxation(records, PSI, max_rounds=0)
        assert report.clean
        assert report.cells_changed == 0
        assert report.cells_nulled >= 1
        assert find_violations(repaired, PSI) == []

    def test_clean_data_is_untouched(self):
        records = [
            {"price": 10.0, "discount": 0.01},
            {"price": 20.0, "discount": 0.05},
        ]
        repaired, report = repair_dc_by_relaxation(records, PSI)
        assert repaired == records
        assert report.violations_found == 0
        assert report.rounds == 0
        assert report.cover_size == 0

    def test_rid_records_supported(self):
        records = [
            {"price": 10.0, "discount": 0.05, "_rid": 100},
            {"price": 20.0, "discount": 0.01, "_rid": 200},
        ]
        repaired, report = repair_dc_by_relaxation(records, PSI)
        assert report.clean
        # rids survive the repair untouched.
        assert [r["_rid"] for r in repaired] == [100, 200]

    def test_none_rids_are_absent_not_equal(self):
        # ``_rid: None`` on every row used to make every pair a self pair:
        # detection found nothing and a dirty table was reported clean.
        records = [
            {"price": 10.0, "discount": 0.05, "_rid": None},
            {"price": 20.0, "discount": 0.01, "_rid": None},
        ]
        assert len(find_violations(records, PSI)) == 1
        repaired, report = repair_dc_by_relaxation(records, PSI)
        assert report.violations_found == 1 and report.clean
        assert find_violations([dict(r, _rid=i) for i, r in enumerate(repaired)], PSI) == []

    def test_repair_terminates_on_cascading_violations(self):
        # A chain where fixing one pair can create the next: the round
        # loop plus the null backstop must always reach zero residuals.
        records = [
            {"price": float(i), "discount": round(0.1 - i * 0.01, 3)}
            for i in range(10)
        ]
        repaired, report = repair_dc_by_relaxation(records, PSI, max_rounds=2)
        assert report.clean
        assert find_violations(repaired, PSI) == []


class TestCleanDBRepairSurface:
    def test_facade_repair_replaces_table(self):
        from repro import CleanDB

        db = CleanDB(num_nodes=4)
        db.register_table(
            "lineitem",
            [
                {"price": 10.0, "discount": 0.05},
                {"price": 20.0, "discount": 0.01},
            ],
        )
        assert len(db.check_dc("lineitem", PSI)) == 1
        report = db.repair_dc("lineitem", PSI)
        assert report.clean
        assert db.check_dc("lineitem", PSI) == []

    def test_facade_accepts_rule_strings(self):
        from repro import CleanDB

        db = CleanDB(num_nodes=4)
        db.register_table(
            "lineitem",
            [
                {"price": 10.0, "discount": 0.05},
                {"price": 20.0, "discount": 0.01},
            ],
        )
        rule = "t1.price < t2.price and t1.discount > t2.discount"
        assert len(db.check_dc("lineitem", rule)) == 1

    @pytest.mark.parametrize("execution", ["row", "vectorized"])
    def test_system_repair_reports(self, execution):
        from repro.baselines import CleanDBSystem

        records = [
            {"price": 10.0, "discount": 0.05},
            {"price": 20.0, "discount": 0.01},
        ]
        result = CleanDBSystem(num_nodes=4, execution=execution).repair_dc(
            records, PSI
        )
        assert result.ok
        repair = result.extra["repair"]
        assert repair["violations_found"] == 1
        assert repair["residual_violations"] == 0

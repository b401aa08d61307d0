"""The static analyzer: one dedicated test per rejected error class.

Each ``CMxxx`` code the analyzer can emit has at least one test here that
builds the smallest program exhibiting the defect and asserts the exact
code comes back — these are the acceptance contract for ``repro check``.
Happy-path coverage (clean workloads produce zero diagnostics) lives in
``tests/property/test_check_clean.py``.
"""

from dataclasses import replace

import pytest

from repro import CleanDB
from repro.cleaning.dc_kernel import DenialConstraint, SingleFilter, TuplePredicate, parse_dc
from repro.core.semantics import (
    CODES,
    Diagnostic,
    DiagnosticsError,
    SpanFinder,
    TableInfo,
    analyze_dc,
    analyze_query,
    check_monoid_legality,
    errors_in,
    infer_table,
    render_diagnostics,
)
from repro.errors import PlanningError
from repro.monoid.comprehension import Comprehension, Generator
from repro.monoid.expressions import Var
from repro.monoid.monoids import ListMonoid
from repro.physical.functions import DEFAULT_FUNCTIONS, register_function

CUSTOMERS = [
    {"name": "ann", "address": "addr0", "phone": "700-0001", "nationkey": 1},
    {"name": "bob", "address": "addr1", "phone": "700-0002", "nationkey": 2},
    {"name": "cal", "address": "addr0", "phone": "701-0003", "nationkey": 1},
]


@pytest.fixture
def db():
    db = CleanDB(num_nodes=2)
    db.register_table("customer", CUSTOMERS)
    return db


def codes(diags):
    return [d.code for d in diags]


# --------------------------------------------------------------------- #
# Error classes: parse and name resolution
# --------------------------------------------------------------------- #
class TestNameResolution:
    def test_cm001_parse_error(self, db):
        diags = db.check("SELECT * FROM")
        assert codes(diags) == ["CM001"]
        assert diags[0].span is not None

    def test_cm101_unknown_table(self, db):
        diags = db.check("SELECT o.total FROM orders o")
        assert "CM101" in codes(diags)

    def test_cm102_unknown_column_with_suggestion(self, db):
        diags = db.check("SELECT c.nam FROM customer c")
        (diag,) = [d for d in diags if d.code == "CM102"]
        assert "name" in (diag.hint or "")
        assert diag.span is not None and diag.span.length >= len("c.nam")

    def test_cm103_unbound_alias(self, db):
        diags = db.check("SELECT d.name FROM customer c")
        assert "CM103" in codes(diags)

    def test_cm104_unknown_function(self, db):
        diags = db.check("SELECT frobnicate(c.name) FROM customer c")
        (diag,) = [d for d in diags if d.code == "CM104"]
        assert "frobnicate" in diag.message


# --------------------------------------------------------------------- #
# Error classes: types and cleaning-operator parameters
# --------------------------------------------------------------------- #
class TestTypeChecks:
    def test_cm201_ordered_comparison_over_incompatible_domains(self, db):
        diags = db.check("SELECT * FROM customer c WHERE c.name > 3")
        (diag,) = [d for d in diags if d.code == "CM201"]
        assert "str" in diag.message and "num" in diag.message

    def test_cm201_silent_on_dirty_mixed_columns(self):
        db = CleanDB(num_nodes=2)
        db.register_table(
            "t", [{"v": 1}, {"v": "two"}, {"v": None}]
        )  # mixed domain: analyzer must not guess
        assert db.check("SELECT * FROM t x WHERE x.v > 3") == []

    def test_cm202_theta_outside_unit_interval(self, db):
        diags = db.check(
            "SELECT * FROM customer c DEDUP(exact, LD, 1.5, c.name)"
        )
        assert "CM202" in codes(diags)

    def test_cm203_unknown_metric(self, db):
        diags = db.check(
            "SELECT * FROM customer c DEDUP(exact, XQ, 0.7, c.name)"
        )
        (diag,) = [d for d in diags if d.code == "CM203"]
        assert "XQ" in diag.message

    def test_cm204_unknown_blocking_operator(self, db):
        diags = db.check(
            "SELECT * FROM customer c DEDUP(wavelet, LD, 0.7, c.name)"
        )
        assert "CM204" in codes(diags)

    def test_cm205_dedup_without_attributes(self, db):
        diags = db.check("SELECT * FROM customer c DEDUP(exact, LD, 0.7)")
        assert "CM205" in codes(diags)


# --------------------------------------------------------------------- #
# Error classes: denial constraints
# --------------------------------------------------------------------- #
class TestDenialConstraints:
    def test_cm301_malformed_clause(self, db):
        diags = db.check(rule="t1.name ~ t2.name", on="customer")
        assert "CM301" in codes(diags)

    def test_cm302_unknown_attribute(self, db):
        diags = db.check(rule="t1.salary == t2.salary", on="customer")
        hits = [d for d in diags if d.code == "CM302"]
        assert hits and all("salary" in d.message for d in hits)

    def test_cm303_type_incompatible_comparison(self, db):
        diags = db.check(rule="t1.name < t2.nationkey", on="customer")
        assert "CM303" in codes(diags)

    def test_cm304_unsatisfiable_orderings(self, db):
        diags = db.check(
            rule="t1.address == t2.address and t1.address != t2.address",
            on="customer",
        )
        assert "CM304" in codes(diags)

    def test_satisfiable_rule_is_clean(self, db):
        assert (
            db.check(
                rule="t1.address == t2.address and t1.phone != t2.phone",
                on="customer",
            )
            == []
        )

    def test_sql_single_equals_is_an_equality_predicate(self, db):
        rule = "t1.address = t2.address and t1.phone != t2.phone"
        assert db.check(rule=rule, on="customer") == []
        # Normalised to "==": the unsatisfiability check still sees it.
        diags = db.check(
            rule="t1.address = t2.address and t1.address != t2.address",
            on="customer",
        )
        assert "CM304" in codes(diags)

    def test_analyze_dc_without_schema_skips_attribute_checks(self):
        diags = analyze_dc("t1.salary == t2.salary")
        assert diags == []  # no TableInfo: existence cannot be judged

    def test_the_rule_table_is_the_only_one_or_the_named_one(self, db):
        assert db.rule_table() == db.rule_table("customer") == "customer"
        assert CleanDB().rule_table() is None  # nothing registered: no schema to judge by
        assert CleanDB().check(rule="t1.salary == t2.salary") == []

    def test_an_unknown_on_is_cm101(self, db):
        (diag,) = db.check(rule="t1.name == t2.name", on="zzz")
        assert diag.code == "CM101" and "'zzz'" in diag.message
        assert "registered: customer" in diag.message

    def test_several_tables_and_no_on_is_cm101(self, db):
        db.register_table("orders", [{"okey": 1}])
        (diag,) = db.check(rule="t1.nosuch < t2.name")
        assert diag.code == "CM101" and "pass --on NAME" in diag.message
        assert "registered: customer, orders" in diag.message
        # Named, the rule is judged against that table's schema.
        assert "CM302" in codes(db.check(rule="t1.nosuch < t2.name", on="customer"))


# --------------------------------------------------------------------- #
# Error classes: monoid legality and shippability
# --------------------------------------------------------------------- #
class TestDistributionChecks:
    def test_cm401_non_commutative_monoid(self):
        comp = Comprehension(
            monoid=ListMonoid(),
            head=Var("x"),
            qualifiers=(Generator("x", Var("rows")),),
        )
        diags = check_monoid_legality(comp, branch="fd1")
        (diag,) = diags
        assert diag.code == "CM401"
        assert "fd1" in diag.message and "list" in diag.message

    def test_cm501_unshippable_user_function_under_parallel(self, db):
        register_function("locally", lambda v: v)
        try:
            db.config = replace(db.config, execution="parallel")
            diags = db.check("SELECT locally(c.name) FROM customer c")
            (diag,) = [d for d in diags if d.code == "CM501"]
            assert "locally" in diag.message
        finally:
            del DEFAULT_FUNCTIONS["locally"]

    def test_cm501_silent_in_row_mode(self, db):
        register_function("locally", lambda v: v)
        try:
            assert db.check("SELECT locally(c.name) FROM customer c") == []
        finally:
            del DEFAULT_FUNCTIONS["locally"]

    def test_builtins_exempt_from_cm501(self, db):
        db.config = replace(db.config, execution="parallel")
        assert db.check("SELECT prefix(c.phone) FROM customer c") == []


# --------------------------------------------------------------------- #
# Compile-time enforcement (the facade raises on errors)
# --------------------------------------------------------------------- #
class TestFacadeEnforcement:
    def test_compile_raises_diagnostics_error(self, db):
        with pytest.raises(DiagnosticsError) as exc:
            db.compile("SELECT c.nam FROM customer c")
        assert codes(exc.value.diagnostics) == ["CM102"]
        assert exc.value.source == "SELECT c.nam FROM customer c"

    def test_execute_rejects_before_running(self, db):
        with pytest.raises(DiagnosticsError):
            db.execute("SELECT * FROM customer c WHERE c.name > 3")

    def test_check_dc_rejects_bad_rule(self, db):
        with pytest.raises(DiagnosticsError) as exc:
            db.check_dc("customer", "t1.salary == t2.salary")
        assert "CM302" in codes(exc.value.diagnostics)

    def test_warnings_do_not_block_compile(self, db):
        # A satisfiable plan with no errors must still compile.
        plan = db.compile("SELECT * FROM customer c FD(c.address, c.phone)")
        assert plan is not None

    def test_compile_and_check_de_sugar_a_query_once(self, db, monkeypatch):
        """The legality walk reads the branches the plan lowers: once the
        analyzer de-sugared every query a second time."""
        import repro.core.language as language
        import repro.core.rewriter as rewriter

        calls = []

        def counted(query):
            calls.append(query)
            return real(query)

        real = rewriter.rewrite_query
        monkeypatch.setattr(rewriter, "rewrite_query", counted)
        monkeypatch.setattr(language, "rewrite_query", counted)
        sql = "SELECT * FROM customer c FD(c.address, c.phone) DEDUP(exact, LD, 0.7, c.name)"
        db.compile(sql)
        assert len(calls) == 1
        assert db.check(sql) == []
        assert len(calls) == 2

    def test_a_query_that_cannot_de_sugar_raises_the_rewriters_error(self, db):
        with pytest.raises(PlanningError, match="SELECT \\* cannot be combined"):
            db.compile("SELECT * FROM customer c GROUP BY c.name")
        assert db.check("SELECT * FROM customer c GROUP BY c.name") == []


# --------------------------------------------------------------------- #
# The cleaning calls' front door
# --------------------------------------------------------------------- #
class TestCleaningCalls:
    def test_an_unknown_fd_attribute_gets_a_hint(self, db):
        with pytest.raises(DiagnosticsError) as exc:
            db.check_fd("customer", ["nam"], ["phone"])
        (diag,) = exc.value.diagnostics
        assert (diag.code, diag.hint) == ("CM102", "did you mean 'name'?")

    def test_callables_and_rids_are_not_judged(self, db):
        out = db.check_fd("customer", [lambda r: r["address"]], ["_rid"])
        assert len(out) == 1
        assert db.deduplicate("customer", ["name"], block_on=lambda r: 0) == []

    def test_an_empty_table_is_not_judged(self, db):
        db.register_table("empty", [])
        assert db.check_fd("empty", ["nosuch"], ["v"]) == []
        assert db.deduplicate("empty", ["nosuch"], block_on="other") == []
        assert db.check_dc("empty", "t1.nosuch < t2.v") == []

    def test_a_built_constraint_is_malformed_without_a_known_operator(self, db):
        bad = [
            DenialConstraint(()),
            DenialConstraint((TuplePredicate("name", "~", "name"),)),
            DenialConstraint(
                (TuplePredicate("name", "==", "name"),), (SingleFilter("nationkey", "=<", 1),)
            ),
        ]
        for constraint in bad:
            with pytest.raises(DiagnosticsError) as exc:
                db.check_dc("customer", constraint)
            assert codes(exc.value.diagnostics) == ["CM301"], constraint

    def test_where_goes_with_rule_text(self, db):
        rule = "t1.address == t2.address and t1.phone < t2.phone"
        assert len(db.check_dc("customer", rule, where="t1.nationkey < 2")) == 1
        assert db.check_dc("customer", rule, where="t1.nationkey > 1") == []
        with pytest.raises(ValueError, match="rule text"):
            db.check_dc("customer", parse_dc(rule), where="t1.nationkey < 2")

    def test_a_bad_filter_is_caught_before_the_table_changes(self, db):
        before = [dict(row) for row in db.table("customer")]
        with pytest.raises(DiagnosticsError) as exc:
            db.repair_dc("customer", "t1.name == t2.name", where="t1.nationkey < 'x'")
        assert codes(exc.value.diagnostics) == ["CM303"]
        assert db.table("customer") == before


# --------------------------------------------------------------------- #
# Infrastructure: schema inference, spans, rendering, code registry
# --------------------------------------------------------------------- #
class TestInference:
    def test_infer_table_kinds(self):
        info = infer_table(CUSTOMERS)
        assert info.kind_of("name") == "str"
        assert info.kind_of("nationkey") == "num"
        assert info.kind_of("missing") is None

    def test_none_values_do_not_poison_kinds(self):
        info = infer_table([{"a": None}, {"a": 3}, {"a": None}])
        assert info.kind_of("a") == "num"

    def test_bools_count_as_numbers(self):
        info = infer_table([{"flag": True}, {"flag": 0}])
        assert info.kind_of("flag") == "num"

    def test_scalar_tables_are_not_records(self):
        info = infer_table(["ann", "bob"])
        assert not info.is_record


class TestSpansAndRendering:
    def test_attr_span_points_at_the_reference(self):
        sql = "SELECT c.nam FROM customer c"
        span = SpanFinder(sql).attr("c", "nam")
        assert span is not None
        assert sql[span.position : span.position + span.length] == "c.nam"

    def test_render_includes_caret_line(self, db):
        sql = "SELECT c.nam FROM customer c"
        diags = db.check(sql)
        text = render_diagnostics(diags, {"query": sql})
        assert "error[CM102]" in text
        assert "^" in text and "c.nam" in text

    def test_render_without_source_still_prints_code(self):
        diag = Diagnostic(code="CM601", severity="error", message="boom")
        text = render_diagnostics([diag], {})
        assert "error[CM601]: boom" in text

    def test_errors_in_filters_severity(self):
        warn = Diagnostic(code="CM304", severity="warning", message="w")
        err = Diagnostic(code="CM102", severity="error", message="e")
        assert errors_in([warn, err]) == [err]


class TestCodeRegistry:
    def test_codes_are_unique_and_well_formed(self):
        assert len(CODES) == len(set(CODES))
        for code in CODES:
            assert code.startswith("CM") and code[2:].isdigit()

    def test_analyzer_only_emits_registered_codes(self, db):
        probes = [
            "SELECT * FROM",
            "SELECT o.total FROM orders o",
            "SELECT c.nam FROM customer c",
            "SELECT frobnicate(c.name) FROM customer c",
            "SELECT * FROM customer c WHERE c.name > 3",
            "SELECT * FROM customer c DEDUP(exact, XQ, 1.5, c.name)",
        ]
        for sql in probes:
            for diag in db.check(sql):
                assert diag.code in CODES

    def test_analyze_query_accepts_raw_text(self, db):
        diags = analyze_query(
            "SELECT c.nam FROM customer c", {"customer": CUSTOMERS}
        )
        assert "CM102" in codes(diags)

"""Zero-diagnostics property: every shipped workload is statically clean.

The analyzer's false-positive budget is zero — the moment ``repro check``
flags a query the repo itself runs (the paper workloads, the differential
catalogs, the serving examples), users stop trusting it.  This suite
pins that property over every query family the language supports, in
every execution mode, plus the canonical DC rules over generated TPC-H
data.  It also locks the CM-code registry to the documentation: every
code the analyzer can emit has a row in ``docs/DIAGNOSTICS.md``.
"""

import re
from pathlib import Path

import pytest

from repro import CleanDB
from repro._records import replace
from repro.core.semantics import CODES
from repro.datasets.tpch import generate_lineitem

REPO_ROOT = Path(__file__).resolve().parents[2]


def customers():
    return [
        {
            "name": f"client {i:02d}",
            "address": f"addr{i % 4}",
            "phone": f"{700 + i % 4}-{i:04d}",
            "nationkey": i % 3,
        }
        for i in range(24)
    ]


#: The full query catalog: paper figures, differential-test families,
#: serving examples.  Each must produce zero diagnostics.
WORKLOADS = [
    "SELECT * FROM customer c",
    "SELECT c.name AS n FROM customer c WHERE c.nationkey > 0",
    "SELECT DISTINCT c.address FROM customer c",
    "SELECT c.address, count(c.name) AS cnt FROM customer c GROUP BY c.address",
    "SELECT * FROM customer c FD(c.address, c.nationkey)",
    "SELECT * FROM customer c FD(c.address, prefix(c.phone))",
    "SELECT * FROM customer c FD(c.address, prefix(c.phone)) FD(c.address, c.nationkey)",
    "SELECT * FROM customer c DEDUP(exact, LD, 0.5, c.address)",
    "SELECT * FROM customer c DEDUP(token_filtering, LD, 0.8, c.name)",
    "SELECT * FROM customer c FD(c.address, c.nationkey) DEDUP(exact, LD, 0.5, c.address)",
    (
        "SELECT * FROM customer c, dictionary d "
        "CLUSTER BY(token_filtering, LD, 0.7, c.name)"
    ),
    (
        "SELECT c.name, c.address, * FROM customer c, dictionary d "
        "CLUSTER BY(token_filtering, LD, 0.7, c.name)"
    ),
]

#: Canonical DC rules (§8.3's ψ family) in source form.
DC_RULES = [
    ("t1.price < t2.price and t1.discount > t2.discount", "t1.price < 1000"),
    ("t1.suppkey != t2.suppkey and t1.orderkey == t2.orderkey", ""),
]


@pytest.fixture(scope="module")
def db():
    db = CleanDB(num_nodes=2)
    db.register_table("customer", customers())
    db.register_table("dictionary", ["client 01", "client 02"])
    return db


class TestWorkloadsAreClean:
    @pytest.mark.parametrize("sql", WORKLOADS)
    def test_zero_diagnostics_row(self, db, sql):
        assert db.check(sql) == []

    @pytest.mark.parametrize("sql", WORKLOADS)
    def test_zero_diagnostics_vectorized(self, db, sql):
        db.config = replace(db.config, execution="vectorized")
        try:
            assert db.check(sql) == []
        finally:
            db.config = replace(db.config, execution="row")

    @pytest.mark.parametrize("sql", WORKLOADS)
    def test_zero_diagnostics_parallel(self, db, sql):
        # The parallel analysis adds CM501 closure checks; the builtin
        # registry must stay exempt.  The config flip alone spawns no pool.
        db.config = replace(db.config, execution="parallel")
        try:
            assert db.check(sql) == []
        finally:
            db.config = replace(db.config, execution="row")


class TestDCRulesAreClean:
    @pytest.mark.parametrize("rule,where", DC_RULES)
    def test_tpch_rules(self, rule, where):
        db = CleanDB(num_nodes=2)
        rows = generate_lineitem(scale_factor=1, rows_per_sf=48)
        db.register_table("lineitem", rows)
        assert db.check(rule=rule, where=where, on="lineitem") == []


class TestDiagnosticsDocumentation:
    def test_every_code_is_documented(self):
        doc = (REPO_ROOT / "docs" / "DIAGNOSTICS.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"\bCM\d{3}\b", doc))
        registered = set(CODES)
        missing = registered - documented
        assert not missing, f"codes missing from docs/DIAGNOSTICS.md: {sorted(missing)}"
        phantom = documented - registered
        assert not phantom, f"documented codes the analyzer never emits: {sorted(phantom)}"

    def test_code_families_are_structured(self):
        # CM0xx parse, CM1xx names, CM2xx types, CM3xx DCs, CM4xx monoids,
        # CM5xx distribution, CM6xx plan invariants.
        for code in CODES:
            assert code[2] in "0123456", code

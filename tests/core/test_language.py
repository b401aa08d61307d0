"""Integration tests for the CleanDB facade (parse → ... → execute)."""

import pytest

from repro import CleanDB, PhysicalConfig
from repro.errors import SchemaError


def customers():
    rows = []
    for i in range(40):
        addr = f"addr{i % 6}"
        rows.append(
            {
                "name": f"customer number {i}",
                "address": addr,
                # phone prefix is determined by address except for addr0:
                "phone": f"{900 + (i % 6) + (1 if i == 0 else 0)}-555-{i:04d}",
                "nationkey": (i % 6) % 3 if i != 6 else 99,  # addr0 violates FD2
            }
        )
    return rows


@pytest.fixture
def db():
    instance = CleanDB(num_nodes=4)
    instance.register_table("customer", customers())
    instance.register_table(
        "dictionary", ["customer number 1", "customer number 2"]
    )
    return instance


class TestRegistration:
    def test_unknown_table_in_query(self, db):
        with pytest.raises(SchemaError):
            db.execute("SELECT * FROM nope n")

    def test_rids_assigned(self, db):
        assert all("_rid" in r for r in db.table("customer"))


class TestPlainQueries:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM customer c")
        assert len(result.branch("query")) == 40

    def test_where_filter(self, db):
        result = db.execute("SELECT * FROM customer c WHERE c.nationkey = 99")
        assert len(result.branch("query")) == 1

    def test_projection_with_alias(self, db):
        result = db.execute("SELECT c.address AS a FROM customer c")
        assert all(set(r) == {"a"} for r in result.branch("query"))

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT c.address FROM customer c")
        assert len(result.branch("query")) == 6

    def test_group_by_count(self, db):
        result = db.execute(
            "SELECT c.address, count(c.name) AS cnt FROM customer c GROUP BY c.address"
        )
        rows = result.branch("query")
        assert len(rows) == 6
        assert sum(r["cnt"] for r in rows) == 40

    def test_group_by_having(self, db):
        result = db.execute(
            "SELECT c.address, count(c.name) AS cnt FROM customer c "
            "GROUP BY c.address HAVING count(c.name) > 6"
        )
        assert all(r["cnt"] > 6 for r in result.branch("query"))

    def test_group_by_avg(self, db):
        result = db.execute(
            "SELECT c.address, avg(c.nationkey) AS m FROM customer c GROUP BY c.address"
        )
        assert len(result.branch("query")) == 6


class TestCleaningOperators:
    def test_fd_detects_violation(self, db):
        result = db.execute("SELECT * FROM customer c FD(c.address, c.nationkey)")
        keys = {v["key"] for v in result.branch("fd1")}
        assert "addr0" in keys

    def test_fd_with_computed_rhs(self, db):
        result = db.execute(
            "SELECT * FROM customer c FD(c.address, prefix(c.phone))"
        )
        keys = {v["key"] for v in result.branch("fd1")}
        assert "addr0" in keys  # customer 0 has the shifted prefix

    def test_dedup_exact_blocking(self, db):
        result = db.execute("SELECT * FROM customer c DEDUP(exact, LD, 0.2, c.address)")
        pairs = result.branch("dedup")
        assert pairs  # same-address customers with similar names
        sample = pairs[0]
        assert "p1" in sample and "p2" in sample

    def test_cluster_by_token_filtering(self, db):
        result = db.execute(
            "SELECT * FROM customer c, dictionary d "
            "CLUSTER BY(token_filtering, LD, 0.8, c.name)"
        )
        suggestions = dict(result.branch("cluster_by"))
        # every dirty name is close to a dictionary name here
        assert all(s.startswith("customer number") for s in suggestions.values())

    def test_unified_query_coalesces(self, db):
        result = db.execute(
            "SELECT * FROM customer c "
            "FD(c.address, prefix(c.phone)) FD(c.address, c.nationkey) "
            "DEDUP(exact, LD, 0.2, c.address)"
        )
        assert ("fd1", "fd2", "dedup") in result.report.coalesced_groups
        assert result.report.shared_scan == "customer"
        assert set(result.branches) == {"fd1", "fd2", "dedup"}

    def test_unified_cheaper_than_separate(self):
        query = (
            "SELECT * FROM customer c "
            "FD(c.address, prefix(c.phone)) FD(c.address, c.nationkey) "
            "DEDUP(exact, LD, 0.2, c.address)"
        )
        unified = CleanDB(num_nodes=4)
        unified.register_table("customer", customers())
        r1 = unified.execute(query)

        separate = CleanDB(num_nodes=4, coalesce=False)
        separate.register_table("customer", customers())
        r2 = separate.execute(query)

        assert r1.metrics["simulated_time"] < r2.metrics["simulated_time"]
        # identical answers regardless of plan
        for name in r1.branches:
            assert len(r1.branch(name)) == len(r2.branch(name))

    def test_violations_property_tags_branches(self, db):
        result = db.execute(
            "SELECT * FROM customer c FD(c.address, c.nationkey)"
        )
        assert all(tag == "fd1" for tag, _ in result.violations)


class TestExplain:
    def test_explain_mentions_levels(self, db):
        text = db.explain(
            "SELECT * FROM customer c "
            "FD(c.address, prefix(c.phone)) FD(c.address, c.nationkey)"
        )
        assert "Monoid level" in text
        assert "coalesced groupings: fd1 + fd2" in text
        assert "shared scan: customer" in text
        assert "Physical plan" in text

    def test_explain_does_not_execute(self, db):
        before = db.cluster.metrics.simulated_time
        db.explain("SELECT * FROM customer c")
        assert db.cluster.metrics.simulated_time == before


class TestPhysicalConfigs:
    @pytest.mark.parametrize("grouping", ["aggregate", "sort", "hash"])
    def test_same_results_across_groupings(self, grouping):
        db = CleanDB(num_nodes=4, config=PhysicalConfig(grouping=grouping))
        db.register_table("customer", customers())
        result = db.execute("SELECT * FROM customer c FD(c.address, c.nationkey)")
        assert {v["key"] for v in result.branch("fd1")} == {"addr0"}


class TestCheckOpNames:
    @pytest.mark.parametrize(
        "execution, scan",
        [
            ("row", "scan:customer"),
            ("vectorized", "scan:customer:vec"),
            ("parallel", "scan:customer:par"),
        ],
    )
    def test_scan_op_is_named_after_the_table(self, execution, scan):
        """Every driver names its scan after the table it reads (the fast
        paths used to hard-code ``lineitem`` / ``input``)."""
        with CleanDB(num_nodes=4, execution=execution, workers=2) as db:
            db.register_table("customer", customers())
            checks = (
                lambda: db.check_fd("customer", ["address"], ["nationkey"]),
                lambda: db.check_dc("customer", "t1.nationkey < t2.nationkey"),
                lambda: db.deduplicate("customer", ["name"], block_on="address"),
            )
            for check in checks:
                db.cluster.metrics.reset()
                check()
                assert db.cluster.metrics.ops[0].name == scan

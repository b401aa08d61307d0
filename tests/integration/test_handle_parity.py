"""Handle-based execution parity and store-invalidation regressions.

The partition store is a pure transport optimisation: dispatching handles
to worker-resident partitions must produce **byte-identical** output to
shipping the rows per task — which in turn is byte-identical to the serial
row path.  These tests pin that down on null-laden inputs (None keys, None
comparison values, missing attributes) for all three cleaning fast paths,
warm *and* cold, and prove the versioning contract: after a mutation
(``repair_dc``) bumps a table's version, stale handles must fail loudly and
new runs must see only the repaired rows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    WORKERS,
    dirty_lineitem_rows,
    make_resident,
    nully_dedup_rows,
    nully_fd_rows,
    nully_orders_rows,
    psi_constraint,
    split_for,
)
from repro import CleanDB
from repro.cleaning.dedup import deduplicate, deduplicate_parallel
from repro.cleaning.denial import (
    check_dc,
    check_dc_parallel,
    check_fd,
    check_fd_parallel,
)
from repro.engine import Cluster, StaleHandleError

# Null-laden inputs: every attribute the operators touch goes through None
# (and, for dedup, missing-key) cases.
NULLY_FD = nully_fd_rows()
NULLY_ORDERS = nully_orders_rows()
NULLY_DEDUP = nully_dedup_rows()
PSI = psi_constraint()


def _row_fd(records, num_nodes=4):
    cluster = Cluster(num_nodes)
    ds = cluster.parallelize(records, name="lineitem")
    return repr(check_fd(ds, ["addr"], ["nation"]).collect())


class TestHandleParityNullLaden:
    """Handle-based == ship-per-task == serial row path, byte for byte."""

    def test_fd_parity_cold_and_warm(self):
        row = _row_fd(NULLY_FD)
        with Cluster(4, workers=WORKERS) as cluster:
            pool = cluster.pool
            pool.pin("table:t", 1, _split(NULLY_FD, cluster))
            for _ in range(2):  # cold, then warm on the same pin
                par = check_fd_parallel(
                    cluster, NULLY_FD, ["addr"], ["nation"], pinned=("table:t", 1)
                ).collect()
                assert repr(par) == row

    def test_fd_parity_without_pin(self):
        # Ad-hoc (unpinned) dispatch takes the same handle-based path.
        row = _row_fd(NULLY_FD)
        with Cluster(4, workers=WORKERS) as cluster:
            par = check_fd_parallel(cluster, NULLY_FD, ["addr"], ["nation"]).collect()
            assert repr(par) == row

    def test_dc_parity_cold_and_warm(self):
        row_cluster = Cluster(4)
        ds = row_cluster.parallelize(NULLY_ORDERS, name="lineitem")
        row = repr(check_dc(ds, PSI, strategy="banded").collect())
        with Cluster(4, workers=WORKERS) as cluster:
            pool = cluster.pool
            pool.pin("table:o", 1, _split(NULLY_ORDERS, cluster))
            cold = check_dc_parallel(
                cluster, NULLY_ORDERS, PSI, pinned=("table:o", 1)
            ).collect()
            bytes_after_cold = pool.bytes_shipped_total
            warm = check_dc_parallel(
                cluster, NULLY_ORDERS, PSI, pinned=("table:o", 1)
            ).collect()
            warm_bytes = pool.bytes_shipped_total - bytes_after_cold
            assert repr(cold) == row
            assert repr(warm) == row
            # The warm run reused the resident extraction + index.
            assert warm_bytes < bytes_after_cold

    def test_dc_metrics_identical_cold_and_warm(self):
        """Cache temperature may change measured transport, never the
        simulated clock or the pruning counters."""

        def run(cluster):
            check_dc_parallel(cluster, NULLY_ORDERS, PSI, pinned=("table:o", 1))
            return (
                cluster.metrics.simulated_time,
                cluster.metrics.comparisons,
                cluster.metrics.verified,
            )

        with Cluster(4, workers=WORKERS) as cluster:
            cluster.pool.pin("table:o", 1, _split(NULLY_ORDERS, cluster))
            cold = run(cluster)
            cluster.metrics.reset()
            warm = run(cluster)
        assert cold == warm

    def test_dedup_parity_cold_and_warm(self):
        row_cluster = Cluster(4)
        ds = row_cluster.parallelize(NULLY_DEDUP, name="input")
        row = repr(
            deduplicate(ds, ["name"], theta=0.4, block_on="city").collect()
        )
        with Cluster(4, workers=WORKERS) as cluster:
            cluster.pool.pin("table:d", 1, _split(NULLY_DEDUP, cluster))
            for _ in range(2):
                par = deduplicate_parallel(
                    cluster, NULLY_DEDUP, ["name"], theta=0.4, block_on="city",
                    pinned=("table:d", 1),
                ).collect()
                assert repr(par) == row

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {
                    "addr": st.sampled_from(["a", "b", None]),
                    "nation": st.sampled_from([0, 1, None]),
                }
            ),
            max_size=40,
        )
    )
    def test_fd_parity_property(self, rows):
        records = [{**r, "_rid": i} for i, r in enumerate(rows)]
        row = _row_fd(records, num_nodes=3)
        with Cluster(3, workers=WORKERS) as cluster:
            par = check_fd_parallel(cluster, records, ["addr"], ["nation"]).collect()
        assert repr(par) == row


_split = split_for


class TestVersionInvalidation:
    """Mutation bumps the table version; stale handles must not serve the
    pre-mutation rows."""

    @staticmethod
    def _dirty_rows():
        return dirty_lineitem_rows()

    def test_repair_dc_invalidates_stale_handles(self):
        rule = "t1.price < t2.price and t1.qty > t2.qty"
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS)
        try:
            db.register_table("lineitem", self._dirty_rows())
            pool = db.cluster.pool
            before = db.check_dc("lineitem", rule)
            assert before
            stale_refs = pool.pinned("table:lineitem", 1)
            assert stale_refs is not None

            report = db.repair_dc("lineitem", rule, violations=before)
            assert report.residual_violations == 0
            # The old version's partitions are gone from every worker: a
            # handle kept across the repair fails instead of serving old
            # rows.
            assert pool.pinned("table:lineitem", 1) is None
            with pytest.raises(StaleHandleError):
                pool.fetch(stale_refs)
            # A new check runs against the repaired (re-pinned) rows only.
            assert db.check_dc("lineitem", rule) == []
        finally:
            db.close()

    def test_reregistration_bumps_version_and_serves_new_rows(self):
        rule = "t1.price < t2.price and t1.qty > t2.qty"
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS)
        try:
            db.register_table("lineitem", self._dirty_rows())
            assert db.check_dc("lineitem", rule)  # warm the derived cache
            clean = [
                {"price": float(i), "qty": i // 20, "cat": "c0"} for i in range(200)
            ]
            db.register_table("lineitem", clean)
            assert db.check_dc("lineitem", rule) == []
        finally:
            db.close()

    def test_resize_drops_derived_cache(self):
        """Appending rows changes the record count: the next check must
        re-pin under the same identity AND drop the cached extraction/index
        — never probe a stale index against fresh partitions."""
        rule = "t1.price < t2.price and t1.qty > t2.qty"
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS)
        row_db = CleanDB(num_nodes=4)
        try:
            rows = self._dirty_rows()
            db.register_table("lineitem", rows)
            db.check_dc("lineitem", rule)  # warm the derived cache
            grown = db.table("lineitem") + [
                {"price": 500.0, "qty": 0, "cat": "c1", "_rid": 900},
                {"price": 0.5, "qty": 9, "cat": "c1", "_rid": 901},
            ]
            db.table("lineitem").extend(grown[-2:])
            row_db.register_table("lineitem", list(db.table("lineitem")))
            assert repr(db.check_dc("lineitem", rule)) == repr(
                row_db.check_dc("lineitem", rule)
            )
        finally:
            db.close()

    def test_refresh_table_makes_in_place_edits_visible(self):
        """Same-length in-place edits are snapshot-invisible by contract;
        refresh_table() is the coherence point that re-pins them."""
        rule = "t1.price < t2.price and t1.qty > t2.qty"
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS)
        try:
            db.register_table("lineitem", self._dirty_rows())
            before = db.check_dc("lineitem", rule)
            assert before
            for row in db.table("lineitem"):
                row["qty"] = 1  # repair every row in place
            db.refresh_table("lineitem")
            assert db.check_dc("lineitem", rule) == []
        finally:
            db.close()

    def test_query_path_sees_resized_table(self):
        """SQL queries share the fast paths' freshness contract: a
        length-changing mutation re-pins before the scan binds."""
        sql = "SELECT * FROM customer c FD(c.address, c.nation)"
        rows = [
            {"address": f"a{i % 4}", "nation": i % 2} for i in range(40)
        ]
        par = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS)
        row = CleanDB(num_nodes=4)
        try:
            par.register_table("customer", rows)
            par.execute(sql)  # warm: table pinned, scan bound
            par.table("customer").append(
                {"address": "a0", "nation": 5, "_rid": 40}
            )
            row.register_table("customer", list(par.table("customer")))
            assert (
                sorted(map(repr, par.execute(sql).branches["fd1"]))
                == sorted(map(repr, row.execute(sql).branches["fd1"]))
            )
        finally:
            par.close()
            row.close()

    def test_pool_restart_repins_transparently(self):
        """close() kills the pool (and the store); the next parallel call
        re-pins under the same identity instead of failing."""
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS)
        try:
            db.register_table("lineitem", self._dirty_rows())
            first = db.check_fd("lineitem", ["cat"], ["qty"])
            db.close()
            second = db.check_fd("lineitem", ["cat"], ["qty"])
            assert repr(first) == repr(second)
        finally:
            db.close()


class TestDeltaFaults:
    """Fault injection on the ``append_rows``/``update_rows`` delta path."""

    RULE = "t1.price < t2.price and t1.qty > t2.qty"

    def test_worker_death_mid_delta_recovers_transparently(self):
        """A worker dying while a delta patch is in flight no longer costs
        the warm store: the dead worker's partitions rebuild from lineage,
        the lost patch tasks retry, and the delta still lands *as a delta*
        (``rows_delta`` recorded, new version adopted) — matching a cold
        oracle on the post-delta table."""
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS,
                     incremental=True)
        oracle = CleanDB(num_nodes=4)
        try:
            db.register_table("lineitem", dirty_lineitem_rows())
            db.check_dc("lineitem", self.RULE)  # build the maintained state
            make_resident(db, "lineitem")  # which reads no pool
            pool = db.cluster.pool
            assert pool.pinned("table:lineitem", 1) is not None
            pool._procs[0].terminate()  # crash a worker under the store
            pool._procs[0].join(timeout=5.0)
            db.append_rows(
                "lineitem", [{"price": 0.5, "qty": 9, "cat": "c1"}]
            )
            # The patch recovered and landed incrementally: the delta op
            # was recorded and the table's new version is resident.
            assert db.cluster.metrics.rows_delta > 0
            assert pool.pinned("table:lineitem", 1) is None
            assert pool.pinned("table:lineitem", 2) is not None
            oracle.register_table("lineitem", list(db.table("lineitem")))
            assert repr(db.check_dc("lineitem", self.RULE)) == repr(
                oracle.check_dc("lineitem", self.RULE)
            )
        finally:
            db.close()
            oracle.close()

    def test_worker_death_after_a_one_way_patch_recovers(self):
        """A write awaits no reply, so a worker may die with its patch
        still queued: the next parallel check (no maintained state on this
        session) replays the new version from lineage and matches a cold
        oracle; the old version is gone."""
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS)
        oracle = CleanDB(num_nodes=4)
        try:
            db.register_table("lineitem", dirty_lineitem_rows())
            db.check_dc("lineitem", self.RULE)  # pin version 1
            pool = db.cluster.pool
            db.append_rows("lineitem", [{"price": 0.5, "qty": 9, "cat": "c1"}])
            pool._procs[0].terminate()
            pool._procs[0].join(timeout=5.0)
            db.cluster.metrics.reset()
            dispatched = pool.tasks_dispatched
            got = db.check_dc("lineitem", self.RULE)
            assert pool.tasks_dispatched > dispatched
            assert not [op for op in db.cluster.metrics.ops if op.name.startswith("degraded")]
            oracle.register_table("lineitem", list(db.table("lineitem")))
            assert repr(got) == repr(oracle.check_dc("lineitem", self.RULE))
            assert pool.pinned("table:lineitem", 2) is not None
            assert pool.pinned("table:lineitem", 1) is None
        finally:
            db.close()
            oracle.close()

    def test_back_to_back_writes_land_in_order(self):
        """Five one-way patches queued with no read between them: the
        resident partitions equal the driver's split of the current rows."""
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS, incremental=True)
        try:
            db.register_table("lineitem", dirty_lineitem_rows())
            db.check_dc("lineitem", self.RULE)
            make_resident(db, "lineitem")
            db.append_rows("lineitem", [{"price": 0.5, "qty": 9, "cat": "c1"}])
            db.update_rows("lineitem", {3: {"price": 7.0, "qty": 0, "cat": "c0"}})
            db.append_rows("lineitem", [{"price": 1.5, "qty": i, "cat": "c0"} for i in range(5)])
            db.update_rows("lineitem", {200: {"price": 2.0, "qty": 1, "cat": "c1"}, 7: {"qty": 4}})
            db.append_rows("lineitem", [{"price": 9.5, "qty": 2, "cat": "c1"}])
            pool = db.cluster.pool
            pinned = pool.pinned(*db.tables.pinned_key("lineitem"))
            assert db.tables.versions["lineitem"] == 6
            assert pool.fetch(pinned) == split_for(db.table("lineitem"), db.cluster)
        finally:
            db.close()

    def test_a_patch_without_its_base_fails_loudly(self):
        """A worker that lost the base partition behind the registry's
        back cannot patch it: the next task on the new handle raises
        ``StaleHandleError`` naming the patched partition, never answers
        from stale rows."""
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS)
        try:
            db.register_table("lineitem", dirty_lineitem_rows())
            db.check_dc("lineitem", self.RULE)
            pool = db.cluster.pool
            pool._tell_all("evict", "table:lineitem", 1)  # workers only
            db.append_rows("lineitem", [{"price": 0.5, "qty": 9, "cat": "c1"}])
            with pytest.raises(StaleHandleError, match="patched partition 'table:lineitem' v2"):
                pool.fetch(pool.pinned("table:lineitem", 2))
        finally:
            db.close()

    @pytest.mark.parametrize("execution", ("row", "vectorized", "parallel"))
    def test_refresh_table_drops_incremental_state(self, execution):
        """``refresh_table`` after an external in-place mutation must drop
        the maintained states and the rid index on every backend — they
        mirror rows the mutation changed behind their back, so serving
        from them would resurrect the pre-edit answer."""
        kwargs = dict(num_nodes=4, execution=execution, incremental=True)
        if execution == "parallel":
            kwargs["workers"] = WORKERS
        db = CleanDB(**kwargs)
        try:
            db.register_table("lineitem", dirty_lineitem_rows())
            assert db.check_dc("lineitem", self.RULE)  # build resident state
            assert any(slot[0] == "dc" for slot in db.tables._derived["lineitem"])
            db.update_rows("lineitem", {0: dict(db.table("lineitem")[0])})
            assert ("rids",) in db.tables._derived["lineitem"]
            for row in db.table("lineitem"):
                row["qty"] = 1  # repair in place, behind the mirror's back
            db.refresh_table("lineitem")
            assert "lineitem" not in db.tables._derived
            assert db.check_dc("lineitem", self.RULE) == []
        finally:
            db.close()

    def test_append_rows_invalidates_stale_handles(self):
        """A handle held across ``append_rows`` must fail loudly — the
        delta patch moves the pin to the new version and evicts the old."""
        db = CleanDB(num_nodes=4, execution="parallel", workers=WORKERS,
                     incremental=True)
        try:
            db.register_table("lineitem", dirty_lineitem_rows())
            db.check_dc("lineitem", self.RULE)
            make_resident(db, "lineitem")  # the maintained check reads no pool
            pool = db.cluster.pool
            stale_refs = pool.pinned("table:lineitem", 1)
            assert stale_refs is not None
            db.append_rows(
                "lineitem", [{"price": 500.0, "qty": 0, "cat": "c0"}]
            )
            # The patch shipped one row, not the table.
            assert db.cluster.metrics.rows_delta == 1
            assert pool.pinned("table:lineitem", 1) is None
            assert pool.pinned("table:lineitem", 2) is not None
            with pytest.raises(StaleHandleError):
                pool.fetch(stale_refs)
        finally:
            db.close()

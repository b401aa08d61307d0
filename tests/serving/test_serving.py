"""Tests for the multi-tenant serving layer.

The contracts under test are the ones concurrency can silently break:
interleaved queries must return byte-identical results to serial runs, one
tenant's budget abort must not disturb another tenant's resident state, and
per-query metrics must attribute transport to the query that caused it even
when ten queries share the pool.  Everything runs on small deterministic
datasets so ``repr`` comparisons are stable.
"""

import asyncio
import threading

import pytest

from fixtures import WORKERS, cyclic_nully_rows
from repro.core.language import CleanDB
from repro.serving import CleanService, LoadReport, QueryOutcome, percentile


# --------------------------------------------------------------------- #
# Deterministic tenant datasets and a mixed workload
# --------------------------------------------------------------------- #

def _rows(seed, n=18):
    """Per-tenant rows: same columns, different values, cyclic nulls."""
    return cyclic_nully_rows(
        n,
        {
            "name": (3, lambda i: f"n{(i + seed) % 4}"),
            "city": (None, lambda i: f"c{(i + seed) % 3}"),
            "v": (5, lambda i: (i * (seed + 1)) % 7),
        },
    )


def _workload():
    """Eight mixed queries from two tenants (fd / dedup / dc / sql)."""
    return [
        {"tenant": "acme", "op": "fd", "table": "t", "lhs": ["name"], "rhs": ["city"]},
        {"tenant": "zen", "op": "dedup", "table": "t", "attributes": ["name"], "theta": 0.5},
        {"tenant": "acme", "op": "dc", "table": "t", "rule": "t1.v < t2.v and t1.city == t2.city"},
        {"tenant": "zen", "op": "fd", "table": "t", "lhs": ["city"], "rhs": ["v"]},
        {"tenant": "acme", "op": "dedup", "table": "t", "attributes": ["city"], "theta": 0.5},
        {"tenant": "zen", "op": "dc", "table": "t", "rule": "t1.v > t2.v and t1.name == t2.name"},
        {"tenant": "acme", "op": "sql", "text": "SELECT * FROM t r"},
        {"tenant": "zen", "op": "fd", "table": "t", "lhs": ["name"], "rhs": ["v"]},
    ]


def _service(**kwargs):
    svc = CleanService(workers=WORKERS, **kwargs)
    svc.register_table("acme", "t", _rows(0))
    svc.register_table("zen", "t", _rows(1))
    return svc


# --------------------------------------------------------------------- #
# Concurrent execution is byte-identical to serial execution
# --------------------------------------------------------------------- #

class TestConcurrencyParity:
    def test_concurrent_matches_serial(self):
        with _service() as serial_svc, _service() as conc_svc:
            serial = serial_svc.run_queries(_workload(), sequential=True)
            concurrent = conc_svc.run_queries(_workload())
        assert serial.all_ok and concurrent.all_ok
        assert len(concurrent.outcomes) == len(_workload())
        for s, c in zip(serial.outcomes, concurrent.outcomes):
            assert (s.tenant, s.op, s.status) == (c.tenant, c.op, c.status)
            assert repr(s.rows) == repr(c.rows)

    def test_concurrent_matches_standalone_cleandb(self):
        """Ground truth: each tenant alone on a private pool."""
        expected = []
        for tenant, seed in (("acme", 0), ("zen", 1)):
            db = CleanDB(execution="parallel", workers=WORKERS)
            try:
                db.register_table("t", _rows(seed))
                for spec in _workload():
                    if spec["tenant"] != tenant:
                        continue
                    if spec["op"] == "fd":
                        rows = db.check_fd(spec["table"], spec["lhs"], spec["rhs"])
                    elif spec["op"] == "dedup":
                        rows = db.deduplicate(
                            spec["table"], spec["attributes"], theta=spec["theta"]
                        )
                    elif spec["op"] == "dc":
                        from repro.cleaning.dc_kernel import parse_dc

                        rows = db.check_dc(spec["table"], parse_dc(spec["rule"]))
                    else:
                        rows = db.execute(spec["text"]).branches
                    expected.append((tenant, repr(rows)))
            finally:
                db.close()
        with _service() as svc:
            report = svc.run_queries(_workload())
        assert report.all_ok
        got = sorted((o.tenant, repr(o.rows)) for o in report.outcomes)
        assert got == sorted(expected)

    def test_tenants_never_alias_each_others_tables(self):
        """Same table name, different rows: fd violations must differ."""
        fd = {"op": "fd", "table": "t", "lhs": ["name"], "rhs": ["city"]}
        with _service() as svc:
            report = svc.run_queries(
                [dict(fd, tenant="acme"), dict(fd, tenant="zen")]
            )
        assert report.all_ok
        acme, zen = report.outcomes
        assert repr(acme.rows) != repr(zen.rows)

    def test_within_tenant_queries_run_fifo(self):
        """A tenant's own queries finish in submission order."""
        order = []

        async def drive():
            with _service() as svc:
                tasks = [
                    svc.submit(
                        "acme",
                        {"op": "fd", "table": "t", "lhs": ["name"], "rhs": [c]},
                    )
                    for c in ("city", "v", "name")
                ]
                for i, task in enumerate(tasks):
                    task.add_done_callback(lambda _t, i=i: order.append(i))
                await asyncio.gather(*tasks)

        asyncio.run(drive())
        assert order == [0, 1, 2]

    def test_a_service_reused_across_event_loops_keeps_fifo_and_answers(self):
        """Two ``asyncio.run`` calls on one service: each tenant's queries
        still finish in submission order, and every answer equals a fresh
        service's."""
        with _service() as fresh:
            expected = [repr(o.rows) for o in fresh.run_queries(_workload()).outcomes]

        async def drive(svc):
            done = []
            tasks = [
                svc.submit(spec["tenant"], {k: v for k, v in spec.items() if k != "tenant"})
                for spec in _workload()
            ]
            for i, task in enumerate(tasks):
                task.add_done_callback(lambda _t, i=i: done.append(i))
            return await asyncio.gather(*tasks), done

        with _service() as svc:
            for _ in range(2):
                outcomes, done = asyncio.run(drive(svc))
                assert [repr(o.rows) for o in outcomes] == expected
                for tenant in ("acme", "zen"):
                    mine = [i for i in done if _workload()[i]["tenant"] == tenant]
                    assert mine == sorted(mine)


class TestTenantThreads:
    def test_one_thread_per_tenant_and_none_after_close(self):
        before = set(threading.enumerate())
        svc = _service()
        try:
            assert svc.run_queries(_workload()).all_ok
            started = [t for t in threading.enumerate() if t not in before]
            assert len(started) == len(svc.tenants) == 2
        finally:
            svc.close()
        assert not any(t.is_alive() for t in started)

    def test_a_query_that_raises_leaves_its_tenant_idle(self, monkeypatch):
        """An exception outside the caught tuple still releases ``busy``,
        so the governor can unpin that tenant's tables afterwards."""
        svc = CleanService(workers=WORKERS, store_bytes_cap=1)
        try:
            svc.register_table("acme", "t", _rows(0))
            svc.register_table("zen", "t", _rows(1))
            svc.run_queries([_fd("acme")])
            assert svc.session("acme").db.pinned_table_bytes("t") > 0

            def boom(db, op, spec):
                raise RuntimeError("boom")

            monkeypatch.setattr(CleanService, "_dispatch", staticmethod(boom))
            with pytest.raises(RuntimeError, match="boom"):
                svc.run_queries([_fd("acme")])
            monkeypatch.undo()
            assert not svc.session("acme").busy.locked()
            svc.run_queries([_fd("zen")])
            assert svc.session("acme").db.pinned_table_bytes("t") == 0
            assert svc.session("zen").db.pinned_table_bytes("t") > 0
        finally:
            svc.close()


# --------------------------------------------------------------------- #
# Budget aborts are query-scoped and tenant-isolated
# --------------------------------------------------------------------- #

class TestBudgetIsolation:
    def test_abort_leaves_other_tenant_resident_and_running(self):
        svc = CleanService(workers=WORKERS)
        try:
            svc.session("poor", budget=1e-9)  # first op with any cost aborts
            svc.register_table("poor", "t", _rows(0))
            svc.register_table("rich", "t", _rows(1))
            fd = {"op": "fd", "table": "t", "lhs": ["name"], "rhs": ["city"]}
            report = svc.run_queries(
                [dict(fd, tenant="poor"), dict(fd, tenant="rich")]
            )
            poor, rich = report.outcomes
            assert poor.status == "budget_exceeded"
            assert rich.status == "ok"
            # The abort never unwinds the sibling's gather or the pool.
            assert svc.session("rich").db.pinned_table_bytes("t") > 0
            key = svc.session("rich").db.tables.pinned_key("t")
            assert svc.pool.pinned(*key) is not None
            # The pool keeps serving: rich runs another query afterwards.
            again = svc.run_queries([dict(fd, tenant="rich")])
            assert again.all_ok
            assert repr(again.outcomes[0].rows) == repr(rich.rows)
        finally:
            svc.close()

    def test_abort_leaves_own_pins_resident(self):
        """Query-scoped abort: the tenant's store state survives its own
        blow-up (only the budget is spent, nothing is torn down)."""
        svc = CleanService(workers=WORKERS)
        try:
            svc.session("poor", budget=1e-9)
            svc.register_table("poor", "t", _rows(0))
            report = svc.run_queries(
                [{"tenant": "poor", "op": "fd", "table": "t",
                  "lhs": ["name"], "rhs": ["city"]}]
            )
            assert report.outcomes[0].status == "budget_exceeded"
            assert svc.session("poor").db.pinned_table_bytes("t") > 0
        finally:
            svc.close()


# --------------------------------------------------------------------- #
# Per-query transport attribution under interleaving
# --------------------------------------------------------------------- #

class TestMetricsIsolation:
    def test_interleaved_per_op_transport_matches_single_runs(self):
        """With both services warmed identically, each query's measured
        bytes/ships must be the same whether it runs alone (sequential) or
        interleaved with seven others — attribution is per call token, not
        pool-global."""
        with _service() as serial_svc, _service() as conc_svc:
            serial_svc.run_queries(_workload(), sequential=True)  # warm
            conc_svc.run_queries(_workload(), sequential=True)  # warm
            serial = serial_svc.run_queries(_workload(), sequential=True)
            concurrent = conc_svc.run_queries(_workload())
        for s, c in zip(serial.outcomes, concurrent.outcomes):
            assert (s.tenant, s.op) == (c.tenant, c.op)
            assert c.metrics["bytes_shipped"] == s.metrics["bytes_shipped"]
            assert c.metrics["ship_count"] == s.metrics["ship_count"]
            assert c.metrics["num_ops"] == s.metrics["num_ops"]
            assert c.metrics["measured_time"] >= 0.0

    def test_outcome_metrics_cover_only_the_query_window(self):
        with _service() as svc:
            fd = {"tenant": "acme", "op": "fd", "table": "t",
                  "lhs": ["name"], "rhs": ["city"]}
            first = svc.run_queries([fd]).outcomes[0]
            second = svc.run_queries([fd]).outcomes[0]
        # Each outcome reports its own window, not the session's lifetime.
        assert first.metrics["num_ops"] > 0
        assert second.metrics["num_ops"] <= first.metrics["num_ops"]


# --------------------------------------------------------------------- #
# Fault recovery on a shared multi-tenant pool
# --------------------------------------------------------------------- #

class TestFaultRecovery:
    def test_worker_kill_mid_query_is_transparent_to_both_tenants(self):
        """A worker killed mid-query on a 2-tenant service yields
        byte-identical results after transparent recovery, the outcome is
        flagged ``recovered`` with a positive retry count, and the *other*
        tenant's pins remain resident — ``invalidate_store()`` (which would
        cold-start every tenant) never fires on the happy recovery path."""
        from repro.engine import FaultPlan

        with _service() as oracle_svc:
            oracle = oracle_svc.run_queries(_workload(), sequential=True)
        plan = FaultPlan().kill_before(worker=1, nth=2)
        svc = _service(fault_plan=plan)
        try:
            def fail():  # pragma: no cover - only runs on contract breach
                raise AssertionError("invalidate_store() on the recovery path")

            svc.pool.invalidate_store = fail
            report = svc.run_queries(_workload(), sequential=True)
            assert report.all_ok
            for got, want in zip(report.outcomes, oracle.outcomes):
                assert (got.tenant, got.op, got.status) == (
                    want.tenant, want.op, want.status
                )
                assert repr(got.rows) == repr(want.rows)
            # The kill surfaced as a recovered query, not a degraded one.
            assert report.recovered_count >= 1
            assert report.degraded_count == 0
            assert report.total_retries >= 1
            assert svc.pool.retries_total >= 1
            # Both tenants' pins are still resident on the healed pool.
            for tenant in ("acme", "zen"):
                key = svc.session(tenant).db.tables.pinned_key("t")
                assert svc.pool.pinned(*key) is not None
        finally:
            svc.close()

    def test_exhausted_retries_degrade_to_row_backend(self):
        """When every generation of a worker dies, the query must still
        answer — degraded to the row backend and flagged as such — and the
        service keeps serving afterwards."""
        from repro.engine import FaultPlan

        plan = FaultPlan()
        for gen in range(5):
            plan = plan.kill_before(worker=0, nth=1, gen=gen)
            plan = plan.kill_before(worker=1, nth=1, gen=gen)
        svc = _service(fault_plan=plan)
        try:
            fd = {"tenant": "acme", "op": "fd", "table": "t",
                  "lhs": ["name"], "rhs": ["city"]}
            outcome = svc.run_queries([fd]).outcomes[0]
            assert outcome.status == "ok"
            assert outcome.degraded
            with _service() as oracle_svc:
                want = oracle_svc.run_queries([dict(fd)]).outcomes[0]
            assert repr(outcome.rows) == repr(want.rows)
        finally:
            svc.close()


# --------------------------------------------------------------------- #
# The store-memory governor
# --------------------------------------------------------------------- #

def _fd(tenant):
    return {"tenant": tenant, "op": "fd", "table": "t", "lhs": ["name"], "rhs": ["city"]}


class TestStoreGovernor:
    def test_cap_unpins_idle_tenants_lru_first(self):
        svc = CleanService(workers=WORKERS, store_bytes_cap=1)
        try:
            svc.register_table("acme", "t", _rows(0))
            svc.register_table("zen", "t", _rows(1))
            assert svc.pinned_bytes() == 0  # registration ships nothing
            svc.run_queries([_fd("acme")])
            assert svc.session("acme").db.pinned_table_bytes("t") > 0
            svc.run_queries([_fd("zen")])
            # Zen's query pushed past the cap; acme (idle, least recently
            # touched) was unpinned, zen kept.
            assert svc.session("acme").db.pinned_table_bytes("t") == 0
            assert svc.session("zen").db.pinned_table_bytes("t") > 0
        finally:
            svc.close()

    def test_evicted_table_repins_transparently(self):
        """Eviction costs a warm start, never correctness."""
        fd = _fd("acme")
        with _service() as uncapped:
            expected = uncapped.run_queries([fd]).outcomes[0]
        svc = CleanService(workers=WORKERS, store_bytes_cap=1)
        try:
            svc.register_table("acme", "t", _rows(0))
            svc.register_table("zen", "t", _rows(1))
            svc.run_queries([fd, _fd("zen")], sequential=True)  # zen's unpins acme's table
            assert svc.session("acme").db.pinned_table_bytes("t") == 0
            got = svc.run_queries([fd]).outcomes[0]
            assert got.status == "ok"
            assert repr(got.rows) == repr(expected.rows)
            # The governor protected acme when its query finished and made
            # room at zen's expense; acme's table is resident again.
            assert svc.session("acme").db.pinned_table_bytes("t") > 0
            assert svc.session("zen").db.pinned_table_bytes("t") == 0
        finally:
            svc.close()

    def test_no_cap_never_evicts(self):
        with _service() as svc:
            svc.run_queries([_fd("acme"), _fd("zen")])
            assert svc.session("acme").db.pinned_table_bytes("t") > 0
            assert svc.session("zen").db.pinned_table_bytes("t") > 0
            assert svc.pinned_bytes() > 0


# --------------------------------------------------------------------- #
# Session and admission edges
# --------------------------------------------------------------------- #

class TestSessionEdges:
    def test_session_settings_fixed_at_creation(self):
        with CleanService(workers=WORKERS) as svc:
            svc.session("a", budget=5.0)
            assert svc.session("a") is svc.session("a")
            with pytest.raises(ValueError, match="already exists"):
                svc.session("a", budget=9.0)

    def test_tenant_name_validation(self):
        with CleanService(workers=WORKERS) as svc:
            with pytest.raises(ValueError):
                svc.session("")
            with pytest.raises(ValueError):
                svc.session("a/b")

    def test_unknown_op_is_an_error_outcome(self):
        with _service() as svc:
            report = svc.run_queries([{"tenant": "acme", "op": "mop"}])
        outcome = report.outcomes[0]
        assert outcome.status == "error"
        assert "unknown query op" in outcome.error
        assert not report.all_ok

    def test_missing_spec_key_is_an_error_outcome(self):
        with _service() as svc:
            report = svc.run_queries(
                [{"tenant": "acme", "op": "fd", "table": "t"}]
            )
        outcome = report.outcomes[0]
        assert outcome.status == "error"
        assert "missing key" in outcome.error

    def test_request_without_tenant_rejected(self):
        with _service() as svc:
            with pytest.raises(ValueError, match="tenant"):
                svc.run_queries([{"op": "fd", "table": "t"}])

    def test_closed_service_rejects_sessions(self):
        svc = CleanService(workers=WORKERS)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            svc.session("a")


class TestReportShapes:
    def test_percentile_interpolates(self):
        assert percentile([], 99) == 0.0
        assert percentile([4.0], 50) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 99) == pytest.approx(3.97)

    def test_load_report_summary(self):
        outcomes = [
            QueryOutcome("a", "fd", {}, "ok", latency_seconds=0.2),
            QueryOutcome("b", "dc", {}, "error", latency_seconds=0.4),
        ]
        report = LoadReport(outcomes, elapsed_seconds=0.5)
        summary = report.summary()
        assert summary["queries"] == 2.0
        assert summary["ok"] == 1.0
        assert report.throughput_qps == pytest.approx(4.0)
        assert report.p50_seconds == pytest.approx(0.3)
        assert not report.all_ok

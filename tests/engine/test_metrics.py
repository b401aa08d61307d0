"""Unit tests for the cost model and metrics collector."""

import pytest

from repro.engine import CostModel, MetricsCollector, OpMetrics


class TestCostModel:
    def test_defaults_order_sort_cheaper_than_hash(self):
        cm = CostModel()
        assert cm.sort_shuffle_factor < cm.hash_shuffle_factor

    def test_columnar_scan_cheaper_than_csv(self):
        cm = CostModel()
        assert cm.scan_unit("columnar") < cm.scan_unit("csv")

    def test_scan_unit_per_format_ordering(self):
        cm = CostModel()
        assert cm.scan_unit("csv") < cm.scan_unit("json") < cm.scan_unit("xml")

    def test_memory_scan_free(self):
        assert CostModel().scan_unit("memory") == 0.0

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            CostModel().scan_unit("avro")


class TestOpMetrics:
    def test_simulated_time_is_max_node_plus_shuffle(self):
        op = OpMetrics("x", [1.0, 5.0, 2.0], shuffle_cost=10.0)
        assert op.simulated_time == 15.0

    def test_total_work(self):
        assert OpMetrics("x", [1.0, 2.0]).total_work == 3.0

    def test_balance_uniform(self):
        assert OpMetrics("x", [2.0, 2.0, 2.0]).balance == 1.0

    def test_balance_skewed(self):
        op = OpMetrics("x", [10.0, 0.0, 0.0, 0.0])
        assert op.balance == pytest.approx(0.25)

    def test_balance_empty(self):
        assert OpMetrics("x", []).balance == 1.0


class TestMetricsCollector:
    def test_accumulates_ops(self):
        mc = MetricsCollector()
        mc.record(OpMetrics("a", [1.0], shuffle_cost=2.0))
        mc.record(OpMetrics("b", [3.0]))
        assert mc.simulated_time == 6.0
        assert mc.total_work == 4.0

    def test_phase_time_by_prefix(self):
        mc = MetricsCollector()
        mc.record(OpMetrics("grouping:token", [5.0]))
        mc.record(OpMetrics("similarity:dedup", [7.0]))
        assert mc.phase_time("grouping") == 5.0
        assert mc.phase_time("similarity") == 7.0

    def test_reset(self):
        mc = MetricsCollector()
        mc.record(OpMetrics("a", [1.0]))
        mc.comparisons = 9
        mc.reset()
        assert mc.simulated_time == 0.0
        assert mc.comparisons == 0

    def test_running_total_is_the_left_to_right_sum(self):
        """Bit-identical, not approximately equal: the simulated clock is
        the reproduction.  Values chosen so float addition order matters."""
        recorded = [
            OpMetrics(f"op{i}", [0.1 * i, 1e-9 * i], shuffle_cost=1e12 / (i + 1))
            for i in range(200)
        ]
        mc = MetricsCollector()
        expected = 0.0
        for op in recorded:
            mc.record(op)
            expected += op.simulated_time
            assert mc.simulated_time == expected
        assert mc.summary()["simulated_time"] == expected
        # A window rebuilds its own total over just its ops.
        window = 0.0
        for op in recorded[120:]:
            window += op.simulated_time
        snapshot = (120, 0, 0)
        assert mc.summary_since(snapshot)["simulated_time"] == window
        mc.reset()
        mc.record(recorded[3])
        assert mc.simulated_time == recorded[3].simulated_time

    def test_budget_check_reads_each_op_once(self, monkeypatch):
        """``record_op`` must not re-sum the session's history: 1000 calls
        read 1000 op times, so call 1000 costs what call 1 did."""
        from repro.engine import Cluster

        reads = []
        real = OpMetrics.simulated_time.fget

        def counting(op):
            reads.append(op.name)
            return real(op)

        monkeypatch.setattr(OpMetrics, "simulated_time", property(counting))
        cluster = Cluster(num_nodes=2, budget=1e9)
        for i in range(1000):
            cluster.record_op(f"op{i}", [1.0, 2.0])
        assert len(reads) == 1000
        assert cluster.metrics.simulated_time == 2000.0

    def test_summary_of_an_old_session_reads_no_op(self):
        """``CleanDB.execute`` summarizes after every query: the sums are
        running totals — what a pass over ``ops`` gives, bit for bit — and
        ``summary()`` reads none of the ops behind them."""
        mc = MetricsCollector()
        for i in range(10_000):
            mc.record(OpMetrics(
                "degraded:x" if i % 1000 == 0 else f"op{i}", [0.1 * i, 0.3],
                shuffled_records=i % 7, shuffle_cost=0.7 * (i % 3), batches=i % 2,
                wall_seconds=1e-4 * (i % 11), bytes_shipped=i, ship_count=i % 5,
                rows_delta=i % 3, retries=i % 13 == 0,
            ))
        ops = list(mc.ops)
        by_pass = {
            "simulated_time": sum(op.simulated_time for op in ops),
            "measured_time": sum(op.wall_seconds for op in ops),
            "shuffled_records": float(sum(op.shuffled_records for op in ops)),
            "total_work": sum(op.total_work for op in ops),
            "num_ops": 10_000.0,
            "batches": float(sum(op.batches for op in ops)),
            "bytes_shipped": float(sum(op.bytes_shipped for op in ops)),
            "ship_count": float(sum(op.ship_count for op in ops)),
            "rows_delta": float(sum(op.rows_delta for op in ops)),
            "retries": float(sum(op.retries for op in ops)),
            "degraded_ops": 10.0,
        }

        class Unreadable:
            def __getattribute__(self, name):
                raise AssertionError(f"summary() read an op's {name}")

        mc.ops[:] = [Unreadable()] * len(ops)
        summary = mc.summary()
        assert {key: repr(summary[key]) for key in by_pass} == {
            key: repr(value) for key, value in by_pass.items()
        }
        mc.ops[:] = ops
        assert mc.summary_since((9_990, 0, 0))["num_ops"] == 10.0  # still a window
        mc.reset()
        assert not any(mc.summary()[key] for key in by_pass)

    def test_summary_keys(self):
        mc = MetricsCollector()
        summary = mc.summary()
        assert set(summary) == {
            "simulated_time", "measured_time", "shuffled_records",
            "total_work", "comparisons", "verified", "pruning_ratio",
            "num_ops", "batches", "bytes_shipped", "ship_count",
            "rows_delta", "retries", "degraded_ops",
        }

    def test_measured_time_sums_wall_seconds(self):
        mc = MetricsCollector()
        mc.record(OpMetrics("a", [1.0], wall_seconds=0.25))
        mc.record(OpMetrics("b", [1.0]))  # simulated-only stage
        mc.record(OpMetrics("c", [1.0], wall_seconds=0.5))
        assert mc.measured_time == pytest.approx(0.75)
        # Measured time never leaks into the simulated clock.
        assert mc.simulated_time == 3.0

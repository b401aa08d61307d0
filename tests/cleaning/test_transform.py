"""Unit tests for the syntactic transformations (Table 4 operations)."""

import pytest

from repro.cleaning import (
    FillMissing,
    SplitDate,
    TransformPipeline,
    project_all,
)
from repro.engine import Cluster


@pytest.fixture
def cluster():
    return Cluster(num_nodes=4)


class TestSplitDate:
    def test_splits_iso_date(self, cluster):
        ds = cluster.parallelize([{"receiptdate": "1997-03-28"}])
        out = TransformPipeline([SplitDate("receiptdate")]).run_fused(ds).collect()
        assert out[0]["year"] == "1997"
        assert out[0]["month"] == "03"
        assert out[0]["day"] == "28"

    def test_malformed_date_left_alone(self, cluster):
        ds = cluster.parallelize([{"receiptdate": "not-a-date-at-all-x"}])
        out = TransformPipeline([SplitDate("receiptdate")]).run_fused(ds).collect()
        assert "year" not in out[0] or out[0].get("year") != "1997"

    def test_missing_attr_no_crash(self, cluster):
        ds = cluster.parallelize([{"other": 1}])
        out = TransformPipeline([SplitDate("receiptdate")]).run_fused(ds).collect()
        assert out[0]["other"] == 1


class TestFillMissing:
    def test_fills_none_with_average(self, cluster):
        ds = cluster.parallelize(
            [{"quantity": 10}, {"quantity": None}, {"quantity": 20}]
        )
        out = TransformPipeline([FillMissing("quantity")]).run_fused(ds).collect()
        values = sorted(r["quantity"] for r in out)
        assert values == [10, 15.0, 20]

    def test_empty_string_counts_as_missing(self, cluster):
        ds = cluster.parallelize([{"quantity": ""}, {"quantity": 4}])
        out = TransformPipeline([FillMissing("quantity")]).run_fused(ds).collect()
        assert sorted(r["quantity"] for r in out) == [4, 4.0]

    def test_all_missing_fills_zero(self, cluster):
        ds = cluster.parallelize([{"quantity": None}])
        out = TransformPipeline([FillMissing("quantity")]).run_fused(ds).collect()
        assert out[0]["quantity"] == 0.0


class TestPipelineFusion:
    def test_fused_equals_separate(self, cluster):
        records = [
            {"receiptdate": "1995-01-02", "quantity": None},
            {"receiptdate": "1996-05-06", "quantity": 8},
        ]
        steps = [SplitDate("receiptdate"), FillMissing("quantity")]
        sep = TransformPipeline(steps).run_separate(
            cluster.parallelize([dict(r) for r in records])
        ).collect()
        fused = TransformPipeline(steps).run_fused(
            cluster.parallelize([dict(r) for r in records])
        ).collect()
        assert sorted(sep, key=str) == sorted(fused, key=str)

    def test_fused_costs_less_than_separate(self):
        records = [{"receiptdate": "1995-01-02", "quantity": i % 7 or None} for i in range(200)]
        steps = [SplitDate("receiptdate"), FillMissing("quantity")]
        c_sep = Cluster(num_nodes=4)
        TransformPipeline(steps).run_separate(c_sep.parallelize(records)).collect()
        c_fused = Cluster(num_nodes=4)
        TransformPipeline(steps).run_fused(c_fused.parallelize(records)).collect()
        assert c_fused.metrics.simulated_time < c_sep.metrics.simulated_time

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            TransformPipeline([])


class TestProjectAll:
    def test_identity_content(self, cluster):
        records = [{"a": 1}, {"a": 2}]
        out = project_all(cluster.parallelize(records)).collect()
        assert sorted(out, key=str) == sorted(records, key=str)

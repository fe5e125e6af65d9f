"""Tests for the aggregation layer."""

import pytest

from repro.errors import QueryError
from repro.query import Avg, Count, Max, Metric, aggregate, explode, time_series

RECORDS = [
    {"entry_id": "1", "source_id": "cam-A",
     "metadata": {"timestamp": 100.0, "detections": [
         {"vehicle_class": "car", "confidence": 0.9},
         {"vehicle_class": "truck", "confidence": 0.8}]}},
    {"entry_id": "2", "source_id": "cam-A",
     "metadata": {"timestamp": 700.0, "detections": [
         {"vehicle_class": "car", "confidence": 0.7}]}},
    {"entry_id": "3", "source_id": "cam-B",
     "metadata": {"timestamp": 750.0, "detections": []}},
]


class TestMetrics:
    def test_count(self):
        assert Count().compute(RECORDS) == 3

    def test_avg_over_path(self):
        rows = explode(RECORDS, "metadata.detections")
        assert Avg("confidence").compute(rows) == pytest.approx(0.8)

    def test_max_over_path(self):
        rows = explode(RECORDS, "metadata.detections")
        assert Max("confidence").compute(rows) == pytest.approx(0.9)

    def test_missing_values_ignored(self):
        assert Avg("metadata.nothing").compute(RECORDS) == 0

    def test_invalid_metric_rejected(self):
        with pytest.raises(QueryError):
            Metric(name="x", kind="median")
        with pytest.raises(QueryError):
            Metric(name="x", kind="avg")  # no path


class TestExplode:
    def test_one_row_per_detection(self):
        rows = explode(RECORDS, "metadata.detections")
        assert len(rows) == 3
        assert {r["vehicle_class"] for r in rows} == {"car", "truck"}

    def test_parent_fields_preserved(self):
        rows = explode(RECORDS, "metadata.detections")
        assert all("source_id" in r for r in rows)

    def test_non_list_path_skipped(self):
        assert explode(RECORDS, "source_id") == []


class TestAggregate:
    def test_group_by_source(self):
        out = aggregate(RECORDS, [Count()], group_by="source_id")
        assert out["cam-A"]["count"] == 2
        assert out["cam-B"]["count"] == 1

    def test_single_group_default(self):
        out = aggregate(RECORDS, [Count()])
        assert out == {"all": {"count": 3}}

    def test_detections_per_class(self):
        rows = explode(RECORDS, "metadata.detections")
        out = aggregate(rows, [Count(), Avg("confidence")], group_by="vehicle_class")
        assert out["car"]["count"] == 2
        assert out["car"]["avg(confidence)"] == pytest.approx(0.8)
        assert out["truck"]["count"] == 1

    def test_requires_metric(self):
        with pytest.raises(QueryError):
            aggregate(RECORDS, [])

    def test_group_by_and_key_fn_exclusive(self):
        with pytest.raises(QueryError):
            aggregate(RECORDS, [Count()], group_by="x", key_fn=lambda r: 1)

    def test_custom_key_fn(self):
        out = aggregate(RECORDS, [Count()], key_fn=lambda r: len(r["metadata"]["detections"]))
        assert out[0]["count"] == 1
        assert out[1]["count"] == 1
        assert out[2]["count"] == 1


class TestTimeSeries:
    def test_buckets(self):
        out = time_series(RECORDS, [Count()], bucket_s=600.0)
        assert out[0.0]["count"] == 1
        assert out[600.0]["count"] == 2

    def test_missing_timestamps_dropped(self):
        records = RECORDS + [{"entry_id": "4", "metadata": {}}]
        out = time_series(records, [Count()], bucket_s=600.0)
        assert sum(v["count"] for v in out.values()) == 3

    def test_invalid_bucket_rejected(self):
        with pytest.raises(QueryError):
            time_series(RECORDS, [Count()], bucket_s=0)

    def test_end_to_end_with_query_engine(self):
        """Aggregate real on-chain records from a populated framework."""
        from repro.core import Client, Framework, FrameworkConfig
        from repro.trust import SourceTier

        framework = Framework(FrameworkConfig(consensus="solo"))
        cam = Client(framework, framework.register_source("agg-cam", tier=SourceTier.TRUSTED))
        for i in range(4):
            cam.submit(f"frame-{i}".encode(), {
                "timestamp": 300.0 * i,
                "detections": [{"vehicle_class": "car", "confidence": 0.8 + 0.01 * i}],
            })
        rows = [r.record for r in cam.query("source_id = 'agg-cam'")]
        series = time_series(rows, [Count()], bucket_s=600.0)
        assert sum(v["count"] for v in series.values()) == 4
        per_class = aggregate(
            explode(rows, "metadata.detections"),
            [Count(), Avg("confidence")],
            group_by="vehicle_class",
        )
        assert per_class["car"]["count"] == 4

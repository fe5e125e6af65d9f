"""Tests for the figure-regeneration harness (small parameterizations)."""

import numpy as np

from repro.bench import (
    fig2_sample_record,
    fig3_confidence,
    fig4_extraction_scatter,
    fig5_storage_times,
    fig6_retrieval_times,
    format_table,
    human_size,
)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], ["xx", 0.0001]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "1.000e-04" in text  # small floats in scientific notation

    def test_human_size(self):
        assert human_size(512) == "512 B"
        assert human_size(8 << 10) == "8 KiB"
        assert human_size(4 << 20) == "4 MiB"


class TestFigureFunctions:
    def test_fig2_record_schema(self):
        record = fig2_sample_record(seed=3)
        assert {"camera_id", "timestamp", "location", "detections", "counts",
                "data_hash"} <= set(record)

    def test_fig3_shape_small(self):
        series = fig3_confidence(n_videos=4, frames_per_video=2, seed=3)
        assert series["static"].mean > series["drone"].mean

    def test_fig3_night_series_present(self):
        series = fig3_confidence(n_videos=2, frames_per_video=2, seed=3, include_night=True)
        assert set(series) == {"static", "drone", "static-night", "drone-night"}
        assert series["static-night"].mean < series["static"].mean

    def test_fig4_points(self):
        points = fig4_extraction_scatter(n_frames=9, seed=3)
        assert len(points) == 9
        assert all(size > 0 and t >= 0 for size, t in points)

    def test_fig5_linear_shape_small(self):
        # repeats=5: the per-size median then ignores up to two stalled samples.
        timings = fig5_storage_times(sizes=(1 << 10, 64 << 10, 512 << 10), repeats=5)
        sizes = np.array([t.size for t in timings], dtype=float)
        ipfs = np.array([t.ipfs_only_s for t in timings])
        assert float(np.corrcoef(sizes, ipfs)[0, 1]) > 0.8
        assert all(t.with_blockchain_s > t.ipfs_only_s for t in timings)

    def test_fig6_reads_cheaper_than_writes(self):
        store = fig5_storage_times(sizes=(64 << 10,), repeats=5)[0]
        read = fig6_retrieval_times(sizes=(64 << 10,), repeats=5)[0]
        # Reads skip consensus entirely: full read path beats full write path.
        assert read.with_blockchain_s < store.with_blockchain_s

"""Tests for the workload generators."""

import pytest

from repro.workloads import IngestItem, ingest_stream, payload


class TestFileSizes:
    def test_payload_exact_size(self):
        for size in (0, 1, 1000, 1 << 16):
            assert len(payload(size)) == size

    def test_payload_deterministic(self):
        assert payload(1024, seed=3) == payload(1024, seed=3)

    def test_payload_varies_by_seed_and_label(self):
        assert payload(64, seed=1) != payload(64, seed=2)
        assert payload(64, label="a") != payload(64, label="b")

    def test_payload_incompressible(self):
        import zlib

        data = payload(1 << 16)
        assert len(zlib.compress(data)) > 0.95 * len(data)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            payload(-1)


class TestIngestStream:
    def test_shape(self):
        items = list(ingest_stream(n_videos=2, frames_per_video=3, seed=9))
        assert len(items) == 6
        assert all(isinstance(i, IngestItem) for i in items)
        assert len({i.source_id for i in items}) == 2

    def test_metadata_complete(self):
        item = next(iter(ingest_stream(n_videos=1, frames_per_video=1, seed=9)))
        assert "timestamp" in item.metadata
        assert "detections" in item.metadata
        assert item.metadata["data_hash"]
        assert item.observation.source_id == item.source_id

    def test_payload_is_frame_bytes(self):
        item = next(iter(ingest_stream(n_videos=1, frames_per_video=1, seed=9)))
        assert len(item.payload) == 192 * 108 * 3

    def test_deterministic(self):
        a = [i.payload for i in ingest_stream(n_videos=1, frames_per_video=2, seed=4)]
        b = [i.payload for i in ingest_stream(n_videos=1, frames_per_video=2, seed=4)]
        assert a == b

    def test_drone_stream(self):
        items = list(ingest_stream(n_videos=1, frames_per_video=2, seed=9, kind="drone"))
        assert all(i.metadata["source_kind"] == "drone" for i in items)

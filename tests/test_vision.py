"""Tests for the vision pipeline: scenes, cameras, detector, metadata."""

import json

import numpy as np
import pytest

from repro.vision import (
    DroneCamera,
    MetadataExtractor,
    SceneGenerator,
    SimulatedYolo,
    StaticCamera,
    TrafficDataset,
    VEHICLE_CLASSES,
)


class TestSceneGenerator:
    def test_deterministic(self):
        gen = SceneGenerator(seed=1)
        s1 = gen.scene("a")
        s2 = SceneGenerator(seed=1).scene("a")
        assert s1.vehicles == s2.vehicles

    def test_different_scenes_differ(self):
        gen = SceneGenerator(seed=1)
        assert gen.scene("a").vehicles != gen.scene("b").vehicles

    def test_density_scales_vehicle_count(self):
        sparse = SceneGenerator(seed=1, density=1.0)
        dense = SceneGenerator(seed=1, density=8.0)
        n_sparse = np.mean([len(sparse.scene(f"s{i}").vehicles) for i in range(20)])
        n_dense = np.mean([len(dense.scene(f"s{i}").vehicles) for i in range(20)])
        assert n_dense > 3 * n_sparse

    def test_vehicle_classes_valid(self):
        scene = SceneGenerator(seed=2, density=6.0).scene("x")
        assert all(v.vehicle_class in VEHICLE_CLASSES for v in scene.vehicles)

    def test_advance_moves_and_wraps(self):
        scene = SceneGenerator(seed=3, density=5.0).scene("x")
        later = scene.advance(10.0)
        assert later.timestamp == scene.timestamp + 10.0
        assert all(0 <= v.x < scene.road_length for v in later.vehicles)
        moved = sum(
            1 for a, b in zip(scene.vehicles, later.vehicles) if a.x != b.x
        )
        assert moved == len(scene.vehicles)

    def test_counts(self):
        scene = SceneGenerator(seed=4, density=5.0).scene("x")
        counts = scene.counts()
        assert sum(counts.values()) == len(scene.vehicles)


class TestCameras:
    def scene(self):
        return SceneGenerator(seed=5, density=4.0).scene("cam-test")

    def test_static_frame_shape_and_type(self):
        frame = StaticCamera("cam-1").capture(self.scene())
        assert frame.image.shape == (108, 192, 3)
        assert frame.image.dtype == np.uint8
        assert frame.source_kind == "static"
        assert frame.blur_px == 0.0

    def test_static_capture_renders_vehicles(self):
        frame = StaticCamera("cam-1").capture(self.scene())
        assert len(frame.truth) > 0
        box = frame.truth[0]
        patch = frame.image[box.y0 : box.y1, box.x0 : box.x1]
        # Rendered patch should be closer to the vehicle color than the road.
        target = np.array(box.vehicle.rgb, dtype=np.float32)
        assert np.linalg.norm(patch.reshape(-1, 3).mean(axis=0) - target) < 60

    def test_drone_frames_blurrier_and_coarser(self):
        scene = self.scene()
        drone = DroneCamera("d-1", seed=1)
        drone_frames = [drone.capture(scene) for _ in range(20)]
        assert any(f.blur_px > 0 for f in drone_frames)
        assert all(f.meters_per_px > 0.05 for f in drone_frames)
        # Altitude wanders: GSD is not constant.
        assert len({round(f.meters_per_px, 4) for f in drone_frames}) > 1

    def test_drone_altitude_bounded(self):
        drone = DroneCamera("d-2", seed=2)
        for _ in range(50):
            drone.capture(self.scene())
        assert 25.0 <= drone._altitude <= 140.0

    def test_frame_ids_unique(self):
        cam = StaticCamera("cam-1")
        scene = self.scene()
        ids = {cam.capture(scene).frame_id for _ in range(5)}
        assert len(ids) == 5

    def test_frame_bytes(self):
        frame = StaticCamera("cam-1").capture(self.scene())
        assert len(frame.to_bytes()) == 108 * 192 * 3


class TestSimulatedYolo:
    def test_detects_most_vehicles_in_clean_frames(self):
        scene = SceneGenerator(seed=6, density=4.0).scene("det")
        frame = StaticCamera("cam-1").capture(scene)
        detections = SimulatedYolo(seed=1).detect(frame)
        assert len(detections) >= 0.5 * len(frame.truth)

    def test_static_confidences_high(self):
        scene = SceneGenerator(seed=7, density=4.0).scene("det2")
        frame = StaticCamera("cam-1").capture(scene)
        detections = SimulatedYolo(seed=1).detect(frame)
        assert np.mean([d.confidence for d in detections]) > 0.6

    def test_figure3_shape_static_beats_drone(self):
        """The Figure 3 claim: static capture yields higher, more stable
        confidence than drone capture of comparable scenes."""
        gen = SceneGenerator(seed=8, density=4.0)
        yolo = SimulatedYolo(seed=2)
        static_conf, drone_conf = [], []
        for i in range(15):
            scene = gen.scene(f"cmp-{i}")
            static_conf += [d.confidence for d in yolo.detect(StaticCamera("c", seed=i).capture(scene))]
            drone_conf += [d.confidence for d in yolo.detect(DroneCamera("d", seed=i).capture(scene))]
        assert np.mean(static_conf) > np.mean(drone_conf)
        assert np.std(static_conf) < np.std(drone_conf)

    def test_confidence_bounds(self):
        scene = SceneGenerator(seed=9, density=6.0).scene("b")
        frame = DroneCamera("d", seed=3).capture(scene)
        for d in SimulatedYolo(seed=3).detect(frame):
            assert 0.0 < d.confidence < 1.0

    def test_deterministic_per_seed(self):
        scene = SceneGenerator(seed=10, density=4.0).scene("d")
        frame = StaticCamera("cam", seed=5).capture(scene)
        d1 = SimulatedYolo(seed=4).detect(frame)
        d2 = SimulatedYolo(seed=4).detect(frame)
        assert d1 == d2

    def test_empty_frame_no_detections(self):
        scene = SceneGenerator(seed=11, density=0.0001).scene("empty")
        frame = StaticCamera("cam").capture(scene)
        if not frame.truth:
            assert SimulatedYolo().detect(frame) == []


class TestMetadataExtractor:
    def make_record(self):
        scene = SceneGenerator(seed=12, density=4.0).scene("meta")
        frame = StaticCamera("cam-7").capture(scene)
        detections = SimulatedYolo(seed=5).detect(frame)
        return MetadataExtractor().extract(frame, detections), frame, detections

    def test_figure2_record_shape(self):
        record, frame, detections = self.make_record()
        doc = record.to_dict()
        assert doc["camera_id"] == "cam-7"
        assert "lat" in doc["location"] and "lon" in doc["location"]
        assert len(doc["detections"]) == len(detections)
        if detections:
            det = doc["detections"][0]
            assert set(det) == {"vehicle_class", "confidence", "color", "bbox"}
        assert sum(doc["counts"].values()) == len(detections)

    def test_json_roundtrip(self):
        record, _, _ = self.make_record()
        parsed = json.loads(record.to_json())
        assert parsed == record.to_dict()

    def test_data_hash_binds_frame(self):
        record, frame, detections = self.make_record()
        import hashlib

        assert record.data_hash == hashlib.sha256(frame.to_bytes()).hexdigest()

    def test_extraction_time_recorded(self):
        record, _, _ = self.make_record()
        assert record.extraction_ms > 0

    def test_size_grows_with_detections(self):
        scene = SceneGenerator(seed=13, density=8.0).scene("big")
        empty_scene = SceneGenerator(seed=13, density=0.0001).scene("small")
        cam = StaticCamera("cam")
        yolo = SimulatedYolo(seed=6)
        extractor = MetadataExtractor()
        big = extractor.extract(cam.capture(scene), yolo.detect(cam.capture(scene)))
        small = extractor.extract(cam.capture(empty_scene), yolo.detect(cam.capture(empty_scene)))
        assert big.size_bytes() >= small.size_bytes()

    def test_observation_bridge(self):
        record, _, _ = self.make_record()
        obs = MetadataExtractor().to_observation(record)
        assert obs.source_id == "cam-7"
        assert obs.counts == record.counts


class TestTrafficDataset:
    def test_52_videos_default(self):
        assert TrafficDataset().n_videos == 52

    def test_clip_shape(self):
        ds = TrafficDataset(seed=1, frames_per_video=4)
        clip = ds.static_clip(0)
        assert len(clip) == 4
        assert clip.source_kind == "static"
        assert clip.camera_id == "cam-00"

    def test_deterministic(self):
        c1 = TrafficDataset(seed=2, frames_per_video=2).static_clip(3)
        c2 = TrafficDataset(seed=2, frames_per_video=2).static_clip(3)
        assert (c1.frames[0].image == c2.frames[0].image).all()

    def test_different_indices_different_sites(self):
        ds = TrafficDataset(seed=3, frames_per_video=1)
        a, b = ds.static_clip(0), ds.static_clip(1)
        assert (a.frames[0].lat, a.frames[0].lon) != (b.frames[0].lat, b.frames[0].lon)

    def test_drone_clips(self):
        ds = TrafficDataset(seed=4, frames_per_video=2)
        clip = ds.drone_clip(0)
        assert clip.source_kind == "drone"

    def test_index_bounds(self):
        ds = TrafficDataset(seed=5)
        with pytest.raises(IndexError):
            ds.static_clip(52)
        with pytest.raises(IndexError):
            ds.drone_clip(-1)

    def test_iterator_count(self):
        ds = TrafficDataset(seed=6, frames_per_video=1)
        assert len(list(ds.static_clips(3))) == 3

"""Tests for violation detection and its on-chain indexing/query path."""

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.trust import SourceTier
from repro.util.serialization import canonical_json
from repro.vision import (
    SceneGenerator,
    StaticCamera,
    TrafficDataset,
    ViolationDetector,
    ViolationRecord,
    attach_violations,
)
from repro.vision.dataset import VideoClip


def make_clip(seed=31, density=4.0, frames=5, dt=0.5):
    gen = SceneGenerator(seed=seed, density=density)
    camera = StaticCamera(f"cam-v{seed}")
    scene = gen.scene("violations")
    captured = []
    for _ in range(frames):
        captured.append(camera.capture(scene))
        scene = scene.advance(dt)
    return VideoClip(
        video_id="clip", camera_id=camera.camera_id, source_kind="static",
        frames=tuple(captured),
    )


class TestViolationDetector:
    def test_speeding_detected_with_low_limit(self):
        """Vehicles move 2–14 m/s; a 10 km/h limit must catch some."""
        detector = ViolationDetector(speed_limit_kmh=10.0)
        violations = detector.detect_clip(make_clip())
        speeders = [v for v in violations if v.violation_type == "speeding"]
        assert speeders
        for v in speeders:
            assert v.measured > v.limit
            assert 0.0 < v.confidence <= 0.99

    def test_no_speeding_with_generous_limit(self):
        detector = ViolationDetector(speed_limit_kmh=200.0)
        violations = detector.detect_clip(make_clip())
        assert not [v for v in violations if v.violation_type == "speeding"]

    def test_enforcement_margin_respected(self):
        """Measured speeds within the margin above the limit are not cited."""
        strict = ViolationDetector(speed_limit_kmh=10.0, enforcement_margin_kmh=0.0)
        lenient = ViolationDetector(speed_limit_kmh=10.0, enforcement_margin_kmh=30.0)
        clip = make_clip()
        assert len(strict.detect_clip(clip)) >= len(lenient.detect_clip(clip))

    def test_restricted_class_cited_once_per_vehicle(self):
        detector = ViolationDetector(
            speed_limit_kmh=500.0, restricted_classes=frozenset({"truck", "bus"})
        )
        clip = make_clip(seed=33, density=6.0)
        violations = detector.detect_clip(clip)
        cited = [v for v in violations if v.violation_type == "restricted-class"]
        truth_restricted = {
            b.vehicle.vehicle_id
            for f in clip.frames
            for b in f.truth
            if b.vehicle.vehicle_class in ("truck", "bus")
        }
        assert len(cited) == len(truth_restricted)

    def test_static_evidence_confidence_beats_drone(self):
        from repro.vision import DroneCamera

        gen = SceneGenerator(seed=35, density=4.0)
        scene = gen.scene("evidence")
        static = StaticCamera("s").capture(scene)
        drone_cam = DroneCamera("d", seed=3)
        drones = [drone_cam.capture(scene) for _ in range(10)]
        s_conf = ViolationDetector._evidence_confidence(static)
        d_confs = [ViolationDetector._evidence_confidence(f) for f in drones]
        assert s_conf >= max(d_confs)

    def test_record_serialization(self):
        record = ViolationRecord(
            violation_type="speeding", vehicle_class="car", frame_id="f1",
            measured=55.2345, limit=40.0, confidence=0.91,
        )
        doc = record.to_dict()
        assert doc["measured"] == 55.23
        assert doc["violation_type"] == "speeding"

    def test_attach_violations_filters_by_frame(self):
        v1 = ViolationRecord("speeding", "car", "frame-A", 50.0, 40.0, 0.9)
        v2 = ViolationRecord("speeding", "car", "frame-B", 60.0, 40.0, 0.9)
        meta = attach_violations({"timestamp": 1.0}, [v1, v2], "frame-A")
        assert len(meta["violations"]) == 1
        assert meta["violations"][0]["frame_id"] == "frame-A"


class TestViolationsOnChain:
    @pytest.fixture()
    def populated(self):
        framework = Framework(FrameworkConfig(consensus="solo"))
        client = Client(
            framework, framework.register_source("enforce-cam", tier=SourceTier.TRUSTED)
        )
        dataset = TrafficDataset(seed=37, frames_per_video=4, n_videos=1)
        clip = dataset.static_clip(0)
        detector = ViolationDetector(speed_limit_kmh=10.0)
        violations = detector.detect_clip(clip)
        n_with = 0
        for frame in clip.frames:
            metadata = {
                "timestamp": frame.timestamp,
                "camera_id": frame.camera_id,
                "detections": [],
            }
            metadata = attach_violations(metadata, violations, frame.frame_id)
            if metadata["violations"]:
                n_with += 1
            client.submit(frame.to_bytes(), metadata)
        return framework, client, n_with

    def test_query_by_violation_type_uses_index(self, populated):
        framework, client, n_with = populated
        plan = client.engine.plan("violation_type = 'speeding'")
        assert plan.explain() == "INDEX violation=speeding -> filter"
        rows = client.query("violation_type = 'speeding'")
        assert len(rows) == n_with
        assert n_with > 0

    def test_violation_payload_on_chain(self, populated):
        framework, client, _ = populated
        rows = client.query("violation_type = 'speeding' LIMIT 1")
        violation = rows[0].record["metadata"]["violations"][0]
        assert violation["measured"] > violation["limit"]

    def test_chaincode_list_by_violation(self, populated):
        framework, client, n_with = populated
        # The chaincode keeps no index of its own: its full scan, filtered,
        # answers what the index route answers.
        scanned = client.engine.scan("violation_type = 'speeding'")
        assert len(scanned) == n_with
        indexed = [r.record for r in client.query("violation_type = 'speeding'")]
        assert canonical_json(scanned) == canonical_json(indexed)

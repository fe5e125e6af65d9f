"""Simulated YOLO detector.

The paper runs YOLO over video frames to identify and classify vehicles
with confidence scores (its Figures 2 and 3 are built from those outputs).
We do not need state-of-the-art detection — we need detections whose
*confidence statistics* respond to capture quality the way a real detector's
do. This detector therefore:

* works from the frame's ground-truth boxes (the renderer knows where the
  vehicles are) but *measures the pixels*: the reported color is the mean
  RGB over the box in the actual image, degraded exactly as the image is;
* computes confidence from the physical quality factors — object pixel
  area, blur radius, sensor noise — plus a per-detection stochastic term,
  matching the empirical behaviour that small/blurred/noisy objects score
  lower and wider spread;
* drops detections whose quality falls below a recall threshold and
  misclassifies a fraction of marginal ones, so downstream counts are
  imperfect in the way crowd/drone data is imperfect.

Deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import rng_for
from repro.vision.camera import BBox, Frame
from repro.vision.scene import VEHICLE_CLASSES, VEHICLE_COLORS


@dataclass(frozen=True)
class Detection:
    """One detected object in a frame."""

    vehicle_class: str
    confidence: float
    bbox: tuple[int, int, int, int]
    color_name: str
    color_rgb: tuple[int, int, int]
    true_class: str  # kept for evaluation; a real system wouldn't have it


def _nearest_color(rgb: np.ndarray) -> str:
    names = list(VEHICLE_COLORS)
    palette = np.array([VEHICLE_COLORS[n] for n in names], dtype=np.float32)
    dists = np.linalg.norm(palette - rgb.astype(np.float32), axis=1)
    return names[int(np.argmin(dists))]


class SimulatedYolo:
    """Confidence-calibrated simulated object detector."""

    def __init__(
        self,
        seed: int = 0,
        recall_floor: float = 0.35,
        base_confidence: float = 0.93,
    ) -> None:
        self._rng = rng_for(seed, "detector")
        self.recall_floor = recall_floor
        self.base_confidence = base_confidence

    def _quality(self, frame: Frame, box: BBox) -> float:
        """Image-quality factor in (0, 1] for one object."""
        # Area term: saturates by ~50 px^2; tiny objects hurt most.
        area_term = 1.0 - np.exp(-box.area / 12.0)
        # Blur term: each blur pixel radius costs ~12%.
        blur_term = max(0.25, 1.0 - 0.12 * frame.blur_px)
        # Noise term: sensor noise sigma of 10 costs ~15%.
        noise_term = max(0.5, 1.0 - 0.015 * frame.noise_sigma)
        # Lighting term: contrast loss at night degrades features
        # (environmental factors, paper Figure 3 discussion).
        lighting_term = 0.45 + 0.55 * frame.lighting
        return float(area_term * blur_term * noise_term * lighting_term)

    def detect(self, frame: Frame) -> list[Detection]:
        detections: list[Detection] = []
        for box in frame.truth:
            quality = self._quality(frame, box)
            # Missed detection: probability rises as quality falls.
            if self._rng.random() > (0.55 + 0.45 * quality):
                continue
            confidence = self.base_confidence * quality + float(
                self._rng.normal(0.0, 0.02 + 0.05 * (1.0 - quality))
            )
            confidence = float(np.clip(confidence, 0.05, 0.99))
            if confidence < self.recall_floor:
                continue
            # Misclassification of marginal objects.
            cls = box.vehicle.vehicle_class
            if quality < 0.6 and self._rng.random() < 0.25 * (1.0 - quality):
                others = [c for c in VEHICLE_CLASSES if c != cls]
                cls = str(self._rng.choice(others))
            # Color measured from the actual (degraded) pixels.
            patch = frame.image[box.y0 : box.y1, box.x0 : box.x1]
            mean_rgb = patch.reshape(-1, 3).mean(axis=0)
            detections.append(
                Detection(
                    vehicle_class=cls,
                    confidence=round(confidence, 4),
                    bbox=(box.x0, box.y0, box.x1, box.y1),
                    color_name=_nearest_color(mean_rgb),
                    color_rgb=tuple(int(c) for c in mean_rgb),
                    true_class=box.vehicle.vehicle_class,
                )
            )
        return detections

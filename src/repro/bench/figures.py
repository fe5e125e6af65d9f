"""Data generation for every figure in the paper's evaluation (§IV).

Each ``figN_*`` function produces the numbers behind the corresponding
figure; the ``benchmarks/bench_figN_*.py`` files time the underlying
operations with pytest-benchmark and render these series as tables.

The paper has no numbered tables; Figures 2–6 are the complete set of
evaluation artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import Client, Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.trust import SourceTier
from repro.vision import (
    MetadataExtractor,
    SimulatedYolo,
    TrafficDataset,
)
from repro.workloads.filesizes import DEFAULT_SIZES, payload


# ---------------------------------------------------------------------------
# Figure 2: sample metadata record
# ---------------------------------------------------------------------------


def fig2_sample_record(seed: int = 7) -> dict:
    """One extracted metadata record, as the paper's Figure 2 illustrates."""
    dataset = TrafficDataset(seed=seed, frames_per_video=1, n_videos=1)
    frame = dataset.static_clip(0).frames[0]
    detections = SimulatedYolo(seed=seed).detect(frame)
    return MetadataExtractor().extract(frame, detections).to_dict()


# ---------------------------------------------------------------------------
# Figure 3: confidence scores, static vs drone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfidenceSeries:
    kind: str
    confidences: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.confidences)) if self.confidences else 0.0

    @property
    def std(self) -> float:
        return float(np.std(self.confidences)) if self.confidences else 0.0


def fig3_confidence(
    n_videos: int = 12,
    frames_per_video: int = 4,
    seed: int = 7,
    include_night: bool = False,
) -> dict[str, ConfidenceSeries]:
    """Per-detection confidences for static and drone capture of the
    synthetic corpus. Expected shape: static mean > drone mean, static std
    < drone std (the paper's stability claim). With ``include_night`` the
    environmental-factor series (lighting 0.3) are added."""
    dataset = TrafficDataset(seed=seed, frames_per_video=frames_per_video, n_videos=n_videos)
    detector = SimulatedYolo(seed=seed)
    series = {}
    for kind, clips in (
        ("static", dataset.static_clips(n_videos)),
        ("drone", dataset.drone_clips(n_videos)),
    ):
        confs: list[float] = []
        for clip in clips:
            for frame in clip.frames:
                confs += [d.confidence for d in detector.detect(frame)]
        series[kind] = ConfidenceSeries(kind=kind, confidences=tuple(confs))
    if include_night:
        series.update(_fig3_night_series(n_videos, frames_per_video, seed, detector))
    return series


def _fig3_night_series(
    n_videos: int, frames_per_video: int, seed: int, detector: SimulatedYolo
) -> dict[str, ConfidenceSeries]:
    from repro.util.rng import rng_for
    from repro.vision import DroneCamera, SceneGenerator, StaticCamera

    gen = SceneGenerator(seed=seed)
    out = {}
    for kind, make_camera in (
        ("static-night", lambda i, s: StaticCamera(f"ncam-{i}", lighting=0.3, seed=s)),
        ("drone-night", lambda i, s: DroneCamera(f"ndrone-{i}", lighting=0.3, seed=s)),
    ):
        confs: list[float] = []
        for i in range(n_videos):
            camera = make_camera(i, int(rng_for(seed, "night", kind, str(i)).integers(0, 2**31)))
            scene = gen.scene(f"night-{kind}-{i}", timestamp=1000.0 * i)
            for _ in range(frames_per_video):
                confs += [d.confidence for d in detector.detect(camera.capture(scene))]
                scene = scene.advance(0.5)
        out[kind] = ConfidenceSeries(kind=kind, confidences=tuple(confs))
    return out


# ---------------------------------------------------------------------------
# Figure 4: metadata extraction time vs record size
# ---------------------------------------------------------------------------


def fig4_extraction_scatter(n_frames: int = 60, seed: int = 7) -> list[tuple[int, float]]:
    """(record size bytes, extraction seconds) per frame — the scatter of
    Figure 4. Sizes cluster small (most records < 1 KB) and time is not a
    strict function of size (it tracks detection count and encoding)."""
    dataset = TrafficDataset(
        seed=seed, frames_per_video=3, n_videos=max(1, n_frames // 3)
    )
    detector = SimulatedYolo(seed=seed)
    extractor = MetadataExtractor()
    points: list[tuple[int, float]] = []
    for clip in dataset.static_clips(max(1, n_frames // 3)):
        for frame in clip.frames:
            detections = detector.detect(frame)
            start = time.perf_counter()
            record = extractor.extract(frame, detections)
            elapsed = time.perf_counter() - start
            points.append((record.size_bytes(), elapsed))
            if len(points) >= n_frames:
                return points
    return points


# ---------------------------------------------------------------------------
# Figures 5 and 6: storage / retrieval time vs file size,
# with and without blockchain overhead
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HybridTiming:
    size: int
    ipfs_only_s: float
    with_blockchain_s: float

    @property
    def overhead_s(self) -> float:
        return self.with_blockchain_s - self.ipfs_only_s


def _storage_framework(chunk_size: int = 64 * 1024) -> Framework:
    return Framework(
        FrameworkConfig(consensus="bft", n_ipfs_nodes=2, chunk_size=chunk_size)
    )


def fig5_storage_times(
    sizes=DEFAULT_SIZES, repeats: int = 3, seed: int = 0, framework: Framework | None = None
) -> list[HybridTiming]:
    """Store files of each size to IPFS alone, and through the full store
    path (IPFS + metadata transaction through BFT ordering + commit)."""
    framework = framework or _storage_framework()
    client = Client(framework, framework.register_source("bench-cam", tier=SourceTier.TRUSTED))
    out = []
    for size in sizes:
        ipfs_samples, chain_samples = [], []
        for r in range(repeats):
            data_a = payload(size, seed=seed, label=f"fig5-ipfs-{r}")
            start = time.perf_counter()
            framework.ipfs.add(data_a)
            ipfs_samples.append(time.perf_counter() - start)

            data_b = payload(size, seed=seed, label=f"fig5-chain-{r}")
            start = time.perf_counter()
            client.submit(data_b, {"timestamp": float(size + r), "detections": []})
            chain_samples.append(time.perf_counter() - start)
        out.append(
            HybridTiming(
                size=size,
                ipfs_only_s=float(np.median(ipfs_samples)),
                with_blockchain_s=float(np.median(chain_samples)),
            )
        )
    return out


def fig6_retrieval_times(
    sizes=DEFAULT_SIZES, repeats: int = 9, seed: int = 1, framework: Framework | None = None
) -> list[HybridTiming]:
    """Retrieve files of each size by bare CID from IPFS, and through the
    full retrieval path (the record from a peer's world state + an IPFS
    fetch that hashes each block against the record's CID). Reads never
    touch consensus — the paper's no-gas-cost observation — and both paths
    hash each block once, so the overhead stays near-constant."""
    framework = framework or _storage_framework()
    client = Client(framework, framework.register_source("bench-ret", tier=SourceTier.TRUSTED))
    out = []
    for size in sizes:
        data = payload(size, seed=seed, label="fig6")
        receipt = client.submit(data, {"timestamp": float(size), "detections": []})
        cid = CID.parse(receipt.cid)
        reader = framework.ipfs  # direct IPFS path

        samples: dict[str, list[float]] = {"ipfs": [], "chain": []}
        # Round 0 is untimed (it takes the first touch of this size's buffers);
        # then the paths take turns going first, and neither holds its bytes
        # into the other's timing, so the order biases neither column.
        for r in range(repeats + 1):
            for path in ("ipfs", "chain") if r % 2 else ("chain", "ipfs"):
                start = time.perf_counter()
                if path == "ipfs":
                    fetched = reader.cat(cid)
                else:
                    fetched = client.engine.get(receipt.entry_id, fetch_data=True).data
                if r:
                    samples[path].append(time.perf_counter() - start)
                assert fetched == data
                del fetched
        out.append(
            HybridTiming(
                size=size,
                ipfs_only_s=float(np.median(samples["ipfs"])),
                with_blockchain_s=float(np.median(samples["chain"])),
            )
        )
    return out

#!/usr/bin/env python
"""Smart-city dashboard: aggregation, violations, and live ledger metrics.

The paper's stakeholders — urban planners, law enforcement, emergency
responders — consume summaries, not raw frames. This example batch-ingests
a multi-camera corpus with violation detection enabled, then renders the
analyst views: traffic volume per camera, confidence per vehicle class,
speeding citations, a time series, and the ledger's own health metrics
(the Grafana/Explorer substitution).

Run:  python examples/smart_city_dashboard.py
"""

from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.fabric.monitor import ChannelMonitor
from repro.obs.explorer import LedgerExplorer
from repro.query import Avg, Count, Max, aggregate, explode, time_series
from repro.trust import SourceTier
from repro.vision import TrafficDataset, ViolationDetector, attach_violations
from repro.workloads.traffic import IngestItem, ingest_stream

N_CAMERAS = 4
FRAMES = 3


def build_items():
    """The ingest stream, enriched with speed-enforcement records."""
    dataset = TrafficDataset(seed=19, frames_per_video=FRAMES, n_videos=N_CAMERAS)
    detector = ViolationDetector(speed_limit_kmh=25.0)
    items = []
    base = list(ingest_stream(n_videos=N_CAMERAS, frames_per_video=FRAMES, seed=19))
    by_camera = {}
    for i in range(N_CAMERAS):
        clip = dataset.static_clip(i)
        by_camera[clip.camera_id] = detector.detect_clip(clip)
    frame_iter = iter(
        frame for i in range(N_CAMERAS) for frame in dataset.static_clip(i).frames
    )
    for item in base:
        frame = next(frame_iter)
        metadata = attach_violations(item.metadata, by_camera[item.source_id], frame.frame_id)
        items.append(IngestItem(item.source_id, item.payload, metadata, item.observation))
    return items


def print_block(title, table):
    print(f"\n== {title} ==")
    for key, metrics in table.items():
        cells = "  ".join(f"{name}={value:.3g}" if isinstance(value, float) else f"{name}={value}"
                          for name, value in metrics.items())
        print(f"  {str(key):<22} {cells}")


def main() -> None:
    framework = Framework(FrameworkConfig(consensus="bft", max_batch_size=16))
    monitor = ChannelMonitor(framework.channel)
    ingestor = BatchIngestor(framework)
    items = build_items()
    identity = None
    for source in sorted({i.source_id for i in items}):
        identity = framework.register_source(source, tier=SourceTier.TRUSTED)
        ingestor.register(identity)
    report = ingestor.ingest(items)
    print(f"ingested {report.committed} frames from {N_CAMERAS} cameras "
          f"({report.tx_per_s:.0f} tx/s, {report.blocks} blocks)")

    analyst = Client(framework, identity)
    records = [r.record for r in analyst.query("")]

    print_block(
        "Traffic volume per camera",
        aggregate(records, [Count("frames")], group_by="source_id"),
    )

    detections = explode(records, "metadata.detections")
    print_block(
        "Detections per vehicle class",
        aggregate(
            detections,
            [Count("n"), Avg("confidence", "avg_conf"), Max("confidence", "max_conf")],
            group_by="vehicle_class",
        ),
    )

    citations = explode(records, "metadata.violations")
    if citations:
        print_block(
            "Speed citations by vehicle class",
            aggregate(
                citations,
                [Count("citations"), Avg("measured", "avg_kmh"), Max("measured", "max_kmh")],
                group_by="vehicle_class",
            ),
        )

    print_block(
        "Frames over time (10-minute buckets)",
        time_series(records, [Count("frames")], bucket_s=600.0),
    )

    print("\n== Ledger health (Explorer view) ==")
    summary = LedgerExplorer(framework.channel).summary()
    print(f"  channel {summary['channel']!r} at height {summary['height']}; "
          f"tx outcomes: {summary['tx_by_code']}")
    for name, info in summary["peers"].items():
        print(f"  {name:<14} org={info['org']:<6} height={info['height']} "
              f"state_keys={info['state_keys']}")

    print("\n== Prometheus-style metrics (first lines) ==")
    for line in monitor.render().splitlines()[:8]:
        print(f"  {line}")


if __name__ == "__main__":
    main()

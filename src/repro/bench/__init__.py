"""Benchmark harness: table rendering and per-figure data generation for
the paper's evaluation (Figures 2–6)."""

from repro.bench.figures import (
    ConfidenceSeries,
    HybridTiming,
    fig2_sample_record,
    fig3_confidence,
    fig4_extraction_scatter,
    fig5_storage_times,
    fig6_retrieval_times,
)
from repro.bench.report import (
    emit,
    emit_json,
    format_table,
    human_size,
    results_dir,
    series_stats,
)

__all__ = [
    "results_dir",
    "ConfidenceSeries",
    "HybridTiming",
    "fig2_sample_record",
    "fig3_confidence",
    "fig4_extraction_scatter",
    "fig5_storage_times",
    "fig6_retrieval_times",
    "emit",
    "emit_json",
    "format_table",
    "human_size",
    "series_stats",
]

"""Text rendering of benchmark series: the rows/series each figure reports.

Every figure bench both prints its table and writes it under
``benchmarks/results/`` so a run leaves regeneration artifacts on disk —
a human-readable ``<name>.txt`` and, via :func:`emit_json`, a
machine-readable ``BENCH_<name>.json`` with summary statistics per series
for downstream tooling (regression tracking, plotting).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Mapping, Sequence

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def results_dir() -> Path:
    """Where bench artifacts land: ``$REPRO_BENCH_DIR`` or the repo default.

    The override lets a CI job (or `repro bench-diff` workflows generally)
    write a *fresh* run to a scratch directory and compare it against the
    checked-in baselines without touching them.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    return Path(override) if override else RESULTS_DIR


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width table with a title rule."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "=" * max(len(title), sum(widths) + 2 * (len(widths) - 1))]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != 0 and abs(cell) < 0.01:
            return f"{cell:.3e}"
        return f"{cell:.4f}"
    return str(cell)


def emit(name: str, text: str) -> Path:
    """Print a table and persist it to benchmarks/results/<name>.txt."""
    print("\n" + text + "\n")
    out = results_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def series_stats(values: Sequence[float]) -> dict:
    """Summary statistics for one series of measurements."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    if n == 0:
        return {"n": 0, "mean": None, "std": None, "median": None, "min": None, "max": None}
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / n
    mid = n // 2
    median = vals[mid] if n % 2 else (vals[mid - 1] + vals[mid]) / 2
    return {
        "n": n,
        "mean": mean,
        "std": math.sqrt(var),
        "median": median,
        "min": vals[0],
        "max": vals[-1],
    }


def emit_json(
    name: str,
    series: Mapping[str, Sequence[float]],
    meta: Mapping[str, object] | None = None,
    seed: int | None = None,
) -> Path:
    """Persist benchmark series to ``benchmarks/results/BENCH_<name>.json``.

    ``series`` maps a series name (e.g. ``"storage_1MiB_ipfs_only_s"``) to
    its raw measurements; each gets mean/std/median summary statistics so
    downstream tooling never re-derives them. The document is the v2 BENCH
    envelope (:mod:`repro.obs.benchtrend`): schema version, ``seed``, and a
    config fingerprint, so `repro bench-diff` can compare runs.
    """
    from repro.obs.benchtrend import make_envelope

    doc = make_envelope(
        name,
        {
            key: {**series_stats(vals), "values": [float(v) for v in vals]}
            for key, vals in series.items()
        },
        meta=meta,
        seed=seed,
    )
    out = results_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def human_size(n_bytes: int) -> str:
    if n_bytes >= 1 << 20:
        return f"{n_bytes / (1 << 20):.0f} MiB"
    if n_bytes >= 1 << 10:
        return f"{n_bytes / (1 << 10):.0f} KiB"
    return f"{n_bytes} B"

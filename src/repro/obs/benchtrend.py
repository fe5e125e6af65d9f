"""Bench-trend tracking: a standard BENCH envelope and diffing.

Every ``BENCH_<name>.json`` artifact under ``benchmarks/results/`` carries
the same envelope (v2):

* ``schema_version`` — this format's version (see :data:`SCHEMA_VERSION`);
* ``seed`` — the RNG seed the run was configured with (``None`` for pure
  timing microbenches with no seeded behavior);
* ``config_fingerprint`` — a content hash of ``{name, meta}``: two runs
  are comparable iff their fingerprints match. Deliberately *not* a
  git-describe — the fingerprint identifies the benchmark configuration,
  not the tree it ran in, so baselines survive unrelated commits;
* ``meta`` / ``series`` — as before: free-form run parameters and, per
  series, summary statistics plus raw values.

Around the envelope, :func:`diff_docs` / :func:`compare_dirs` compare a
fresh run against the checked-in baseline with **per-metric,
direction-aware tolerances** — ``repro bench-diff`` exits non-zero on
regression, and CI runs it.

Metric directions are inferred from series names:

* ``*_per_s`` — throughput, higher is better;
* ``*_s`` / ``*_ms`` or names mentioning time/latency/overhead — wall-time,
  lower is better;
* everything else (message counts, PBFT instances, block counts, scores) —
  deterministic under a fixed seed: gated tightly in either direction.

Throughput and wall-time are both machine-dependent, so they gate only
when an explicit *timing* tolerance is given (CI uses a generous one to
catch complexity blowups without flapping on runner variance); only the
deterministic class gates under the tight default tolerance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import ObservabilityError

SCHEMA_VERSION = 2

# Metric direction classes (see module docstring).
HIGHER_IS_BETTER = "higher"
TIMING = "timing"
EXACT = "exact"


def classify_metric(series_name: str) -> str:
    """Infer how a series should be compared, from its name."""
    if series_name.endswith("_per_s"):
        return HIGHER_IS_BETTER
    lowered = series_name.lower()
    if series_name.endswith(("_s", "_ms")) or any(
        word in lowered for word in ("time", "latency", "overhead")
    ):
        return TIMING
    return EXACT


def config_fingerprint(name: str, meta: Mapping[str, object] | None = None) -> str:
    """Content hash identifying a benchmark configuration (no git state)."""
    canon = json.dumps(
        {"name": name, "meta": dict(meta or {})},
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def make_envelope(
    name: str,
    series: Mapping[str, Mapping[str, object]],
    meta: Mapping[str, object] | None = None,
    seed: int | None = None,
) -> dict:
    """Wrap per-series stats blocks in the v2 BENCH envelope."""
    meta_dict = dict(meta or {})
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "config_fingerprint": config_fingerprint(name, meta_dict),
        "meta": meta_dict,
        "series": {key: dict(block) for key, block in series.items()},
    }


def load_bench(path: Path) -> dict:
    """Read one BENCH_*.json; anything but the v2 envelope is refused."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ObservabilityError(f"cannot read bench artifact {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ObservabilityError(f"{path} is not a v{SCHEMA_VERSION} BENCH envelope")
    return doc


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """The comparison of one series' mean between baseline and current."""

    bench: str
    series: str
    direction: str                 # "higher" | "timing" | "exact"
    baseline: float | None
    current: float | None
    tolerance: float | None        # relative; None = informational only
    regressed: bool
    note: str = ""

    @property
    def ratio(self) -> float | None:
        if self.baseline in (None, 0) or self.current is None:
            return None
        return self.current / self.baseline

    def to_dict(self) -> dict:
        return {
            "bench": self.bench,
            "series": self.series,
            "direction": self.direction,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
            "tolerance": self.tolerance,
            "regressed": self.regressed,
            "note": self.note,
        }

    def render(self) -> str:
        flag = "REGRESSED" if self.regressed else "ok"
        base = "-" if self.baseline is None else f"{self.baseline:.6g}"
        cur = "-" if self.current is None else f"{self.current:.6g}"
        ratio = "-" if self.ratio is None else f"{self.ratio:.3f}x"
        note = f"  ({self.note})" if self.note else ""
        return (
            f"{flag:<9} {self.bench}:{self.series} [{self.direction}] "
            f"{base} -> {cur} ({ratio}){note}"
        )


@dataclass(frozen=True)
class DiffReport:
    deltas: tuple[MetricDelta, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not any(d.regressed for d in self.deltas)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "regressions": len(self.regressions),
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def render_lines(self) -> list[str]:
        lines = [d.render() for d in self.deltas]
        lines.append(
            f"bench-diff: {len(self.regressions)} regression(s) over "
            f"{len(self.deltas)} compared metric(s)"
        )
        return lines


def _mean_of(doc: Mapping[str, object], series: str) -> float | None:
    block = (doc.get("series") or {}).get(series) or {}
    mean = block.get("mean")
    return float(mean) if isinstance(mean, (int, float)) and not isinstance(mean, bool) else None


def diff_docs(
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    tolerance: float = 0.1,
    timing_tolerance: float | None = None,
) -> DiffReport:
    """Compare two envelopes series by series.

    ``tolerance`` is the relative tolerance for deterministic metrics
    (two-sided). ``timing_tolerance`` gates the machine-dependent classes —
    wall-time (one-sided: slower is worse) and throughput (one-sided:
    lower is worse); ``None`` leaves them informational. A series present
    in the baseline but missing from the current run is itself a
    regression — silently dropped coverage must not pass.
    """
    bench = str(current.get("name") or baseline.get("name") or "?")
    deltas: list[MetricDelta] = []
    base_series = dict(baseline.get("series") or {})
    cur_series = dict(current.get("series") or {})
    fp_note = ""
    if baseline.get("config_fingerprint") != current.get("config_fingerprint"):
        fp_note = "config fingerprint differs"
    for name in sorted(base_series):
        direction = classify_metric(name)
        tol = tolerance if direction == EXACT else timing_tolerance
        base = _mean_of(baseline, name)
        cur = _mean_of(current, name)
        if name not in cur_series or cur is None:
            deltas.append(MetricDelta(
                bench=bench, series=name, direction=direction,
                baseline=base, current=None, tolerance=tol,
                regressed=True, note="series missing from current run",
            ))
            continue
        regressed = False
        note = fp_note
        if base is None:
            note = "no baseline mean"
        elif tol is None:
            pass  # informational
        elif base == 0:
            regressed = direction == EXACT and cur != 0
            note = note or ("zero baseline" if not regressed else "baseline 0, now nonzero")
        elif direction == HIGHER_IS_BETTER:
            # One-sided, expressed as a slowdown factor like TIMING so a
            # generous tol (e.g. 4.0 = "4x worse") stays meaningful.
            regressed = cur * (1.0 + tol) < base
        elif direction == TIMING:
            regressed = cur > base * (1.0 + tol)
        else:  # EXACT: deterministic under seed — gate both directions
            regressed = abs(cur - base) > tol * abs(base)
        deltas.append(MetricDelta(
            bench=bench, series=name, direction=direction,
            baseline=base, current=cur, tolerance=tol,
            regressed=regressed, note=note,
        ))
    for name in sorted(set(cur_series) - set(base_series)):
        deltas.append(MetricDelta(
            bench=bench, series=name, direction=classify_metric(name),
            baseline=None, current=_mean_of(current, name), tolerance=None,
            regressed=False, note="new series (no baseline)",
        ))
    return DiffReport(deltas=tuple(deltas))


def compare_dirs(
    baseline_dir: Path,
    current_dir: Path,
    names: Sequence[str] | None = None,
    tolerance: float = 0.1,
    timing_tolerance: float | None = None,
) -> DiffReport:
    """Diff every ``BENCH_*.json`` in ``current_dir`` against its baseline.

    ``names`` restricts the comparison to specific bench names (and makes a
    missing current artifact an error instead of a skip). A current artifact
    with no checked-in baseline is reported informationally.
    """
    baseline_dir, current_dir = Path(baseline_dir), Path(current_dir)
    if names:
        current_paths = []
        for name in names:
            path = current_dir / f"BENCH_{name}.json"
            if not path.exists():
                raise ObservabilityError(f"requested bench {name!r} missing from {current_dir}")
            current_paths.append(path)
    else:
        current_paths = sorted(current_dir.glob("BENCH_*.json"))
        if not current_paths:
            raise ObservabilityError(f"no BENCH_*.json artifacts in {current_dir}")
    deltas: list[MetricDelta] = []
    for path in current_paths:
        current = load_bench(path)
        base_path = baseline_dir / path.name
        if not base_path.exists():
            deltas.append(MetricDelta(
                bench=str(current.get("name", path.name)), series="*",
                direction=EXACT, baseline=None, current=None, tolerance=None,
                regressed=False, note="no checked-in baseline",
            ))
            continue
        report = diff_docs(
            load_bench(base_path), current,
            tolerance=tolerance, timing_tolerance=timing_tolerance,
        )
        deltas.extend(report.deltas)
    return DiffReport(deltas=tuple(deltas))

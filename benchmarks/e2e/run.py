"""End-to-end benchmark of the store / retrieve paths (paper Fig. 5 and 6).

    python benchmarks/e2e/run.py [--seed S] [--scale X] [--workload W]
                                 [--traced] [--repeat N] [--out FILE] [--baseline]
    python benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python benchmarks/e2e/run.py compare A.json B.json

The first form runs the workloads (all four by default) each in a fresh
process, checks every answer, prints every metric by name with its unit and
writes the result JSON. The second is the driver's contract: one workload,
one JSON object on the last line of stdout. The third compares two result
files metric by metric and workload by workload.

All loops are closed, one caller, one generator thread. ``repro.net`` delay
is simulated time, so latency is processor time only. Times are
speed-normalised (see README.md): divided by the box's speed index, measured
by a calibration kernel between the timed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

OUT_DIR = HERE / "out"
# Calibration may take this share of the wall before a baseline is refused.
MAX_CALIBRATION_SHARE = 0.05
# Two sides whose median speed index differs by more than this are not shown
# to be the same. Measured over 20 runs per workload with the index between
# 0.96 and 1.68: the slope of ln(normalised ops/s) on ln(index) is within
# +-0.09, so a gap of 0.5 leaves a residual under 0.04, inside every bound.
MAX_SPEED_GAP = 0.5
BYTES_TOLERANCE = 1e-4


# -- running workloads ---------------------------------------------------------


def run_worker(workload: str, seed: int, scale: float, traced: bool) -> dict:
    """One workload in a fresh interpreter with a fixed hash seed."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(
        dir=OUT_DIR, prefix=f"{workload}_", suffix=".json", delete=False
    ) as tmp:
        out = Path(tmp.name)
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--scale", repr(scale), "--traced", str(int(traced)),
             "--out", str(out)],
            env=env, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)


def run_workload(workload: str, seed: int, scale: float, traced: bool) -> dict:
    """The untraced pass, then (``traced``) the same seed again with spans.
    End-to-end metrics always come from the untraced pass."""
    result = run_worker(workload, seed, scale, traced=False)
    if traced:
        second = run_worker(workload, seed, scale, traced=True)
        second["per_layer"]["bench.trace_overhead_ratio"]["value"] = (
            second["normalised_latency_s"] / result["normalised_latency_s"]
        )
        if second["schedule_sha256"] != result["schedule_sha256"]:
            raise SystemExit(f"{workload}: traced pass ran a different schedule")
        result["per_layer"] = second["per_layer"]
        result["traced_pass"] = {
            k: second[k] for k in ("attempted", "failed", "failures", "timing", "spans",
                                   "span_counts", "counter_deltas", "diagnostics")
        }
    return result


def failed(result: dict) -> int:
    return result["failed"] + result.get("traced_pass", {}).get("failed", 0)


# -- the driver's contract -----------------------------------------------------


def driver_main(args: argparse.Namespace) -> int:
    """One pass only: untraced for the end-to-end metrics, traced for the
    per-layer ones (the tracing overhead needs both, so only the report has it)."""
    scale = args.seconds / spec.RUN_SECONDS
    result = run_worker(args.workload, args.seed, scale, traced=bool(args.trace))
    section, listed = ("per_layer", spec.DRIVER_PER_LAYER) if args.trace else (
        "metrics", spec.END_TO_END)
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: result[section][m.name] for m in listed},
    }))
    return 0 if result["failed"] == 0 else 1


# -- the report ----------------------------------------------------------------


def print_result(result: dict) -> None:
    name = result["workload"]
    timing = result["timing"]
    print(f"\n== {name} (seed {result['seed']}, scale {result['scale']:g}) ==")
    print(f"   {spec.WORKLOADS[name]}")
    print("   samples: " + ", ".join(f"{k}={v}" for k, v in sorted(result["samples"].items())))
    for key, entry in result["metrics"].items():
        print(f"   {key:<34}{entry['value']:>16.6g} {entry['unit']}")
    for key, value in result["diagnostics"].items():
        print(f"   {key:<34}{value:>16.6g}")
    print(f"   {'bench.schedule_sha256':<34}{result['schedule_sha256'][:16]:>16}")
    if result.get("per_layer"):
        print("   -- per layer (traced pass) --")
        for key, entry in result["per_layer"].items():
            print(f"   {key:<42}{entry['value']:>16.6g} {entry['unit']}")
    print(
        f"   budget: set-up {timing['setup_wall_s']:.1f} s, timed {timing['timed_wall_s']:.1f} s, "
        f"calibration {timing['calibration_s']:.2f} s, total {timing['total_wall_s']:.1f} s"
    )
    for line in result["failures"]:
        print(f"   FAILED {line}")


def budget(results: list[dict]) -> dict:
    """Wall seconds of one pass over the workloads, and what the driver's
    4 + 22 x workloads runs would take at that pace."""
    untraced = sum(r["timing"]["total_wall_s"] for r in results)
    traced = sum(
        r["traced_pass"]["timing"]["total_wall_s"] for r in results if "traced_pass" in r
    )
    calibration = max(
        r["timing"]["calibration_s"] / r["timing"]["total_wall_s"] for r in results
    )
    estimate = untraced * spec.DRIVER_RUNS_UNTRACED + (
        (traced or 1.5 * untraced) * spec.DRIVER_RUNS_TRACED
    )
    return {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "max_calibration_share": calibration,
        "driver_estimate_s": estimate,
        "driver_cap_s": spec.DRIVER_CAP_S,
    }


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def report_main(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    print(
        "closed loop, one caller, one generator thread; repro.net delay is simulated "
        "time, so latency is processor time only; times are speed-normalised"
    )
    runs = []
    any_failed = 0
    for repeat in range(args.repeat):
        results = []
        for workload in workloads:
            result = run_workload(workload, args.seed, args.scale, args.traced)
            print_result(result)
            any_failed += failed(result)
            results.append(result)
        runs.append(results)
        b = budget(results)
        print(
            f"\npass {repeat + 1}/{args.repeat}: untraced {b['untraced_pass_s']:.1f} s, "
            f"traced {b['traced_pass_s']:.1f} s, calibration at most "
            f"{b['max_calibration_share']:.1%} of wall; the driver's runs would take "
            f"~{b['driver_estimate_s']:.0f} s of {b['driver_cap_s']} s"
        )

    doc = {
        "claim": None,
        "seed": args.seed,
        "scale": args.scale,
        "git_commit": git_commit(),
        "environment": runs[0][0]["environment"],
        "budget": budget(runs[-1]),
        "runs": [{r["workload"]: r for r in results} for results in runs],
    }
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    if args.baseline:
        b = doc["budget"]
        refuse = None
        if any_failed:
            refuse = f"{any_failed} failed operations"
        elif set(workloads) != set(spec.WORKLOADS) or args.scale != 1.0:
            refuse = "a baseline covers all four workloads at scale 1"
        elif b["driver_estimate_s"] > b["driver_cap_s"]:
            refuse = (f"the driver's runs would take {b['driver_estimate_s']:.0f} s, "
                      f"over the {b['driver_cap_s']} s cap")
        elif b["max_calibration_share"] > MAX_CALIBRATION_SHARE:
            refuse = f"calibration took {b['max_calibration_share']:.1%} of wall"
        if refuse:
            print(f"baseline NOT written: {refuse}")
            return 1
        out = HERE / "baseline.json"
        # Checked in: every pass's end-to-end values, one pass's layer table.
        doc["per_layer"] = {w: r.get("per_layer", {}) for w, r in doc["runs"][0].items()}
        doc["runs"] = [
            {w: {k: r[k] for k in ("metrics", "diagnostics", "samples", "schedule_sha256")}
             for w, r in run.items()}
            for run in doc["runs"]
        ]
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print(f"result written to {out}")
    return 1 if any_failed else 0


# -- compare -------------------------------------------------------------------


def _side(path: str) -> dict[tuple[str, str], dict]:
    """``(workload, metric) -> {values, unit, speed}`` over a file's runs."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    out: dict[tuple[str, str], dict] = {}
    for run in doc["runs"]:
        for workload, result in run.items():
            speed = result["diagnostics"]["bench.speed_index_p50"]
            for name, entry in result["metrics"].items():
                cell = out.setdefault(
                    (workload, name), {"values": [], "unit": entry["unit"], "speed": []}
                )
                cell["values"].append(entry["value"])
                cell["speed"].append(speed)
    return out


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (range below 4 runs)."""
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def verdict(metric: spec.Metric, a: dict, b: dict) -> tuple[str, float]:
    """``(verdict, ratio B / A)`` for one metric on one workload."""
    base, new = statistics.median(a["values"]), statistics.median(b["values"])
    rel = new / base if base else (1.0 if new == base else float("inf"))
    worse_by = (rel - 1) if metric.better == "lower" else (1 - rel)
    if metric.exact:
        tolerance = BYTES_TOLERANCE if metric.exact == "bytes" else 0.0
        if abs(rel - 1) <= tolerance:
            return "same", rel
        return ("worse" if worse_by > 0 else "better"), rel
    if max(spread(a["values"]), spread(b["values"])) > metric.bound:
        return "unresolved", rel
    if worse_by > metric.bound:
        return "worse", rel
    if worse_by < -metric.bound:
        return "better", rel
    # Normalisation is only trusted across a small speed gap: beyond it,
    # "no change" is not shown.
    speed_a, speed_b = statistics.median(a["speed"]), statistics.median(b["speed"])
    if abs(speed_a - speed_b) / min(speed_a, speed_b) > MAX_SPEED_GAP:
        return "unresolved", rel
    return "same", rel


def compare_main(args: argparse.Namespace) -> int:
    a, b = _side(args.a), _side(args.b)
    metrics = {m.name: m for m in spec.UNTRACED}
    print(f"A = {args.a}\nB = {args.b}\nratio is B / A (base A); spread is IQR / median")
    print(f"{'workload':<15}{'metric':<28}{'A median':>12}{'B median':>12}{'ratio':>8}"
          f"{'spread A':>9}{'spread B':>9}{'bound':>7}  verdict")
    bad = 0
    for (workload, name) in sorted(a, key=lambda k: (list(spec.WORKLOADS).index(k[0]),
                                                      list(metrics).index(k[1]))):
        if (workload, name) not in b:
            continue
        metric = metrics[name]
        cell_a, cell_b = a[(workload, name)], b[(workload, name)]
        word, rel = verdict(metric, cell_a, cell_b)
        bad += word in ("worse", "unresolved")
        bound = "exact" if metric.exact else f"{metric.bound:.2f}"
        print(
            f"{workload:<15}{name:<28}{statistics.median(cell_a['values']):>12.5g}"
            f"{statistics.median(cell_b['values']):>12.5g}{rel:>8.3f}"
            f"{spread(cell_a['values']):>9.3f}{spread(cell_b['values']):>9.3f}{bound:>7}  {word}"
        )
    print(f"{bad} row(s) worse or unresolved")
    return 1 if bad else 0


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return compare_main(parser.parse_args(argv[1:]))

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every op count (1.0 = the checked-in sizes)")
    parser.add_argument("--traced", action="store_true",
                        help="rerun each workload with spans for the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, help="passes to run and store")
    parser.add_argument("--out", help="result file (default benchmarks/e2e/out/result.json)")
    parser.add_argument("--baseline", action="store_true",
                        help="write benchmarks/e2e/baseline.json if the budget guard allows")
    parser.add_argument("--seconds", type=int, help="driver: length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver: 0 = end-to-end metrics, 1 = per-layer metrics")
    args = parser.parse_args(argv)
    if not (HERE.parents[1] / "src" / "repro").is_dir():
        print("the program's sources (src/repro) are not in this checkout", file=sys.stderr)
        return 2
    if args.trace is not None:
        if args.workload is None or args.seconds is None:
            parser.error("--trace needs --workload and --seconds")
        return driver_main(args)
    return report_main(args)


if __name__ == "__main__":
    sys.exit(main())

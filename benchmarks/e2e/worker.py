"""One workload in one fresh process (started by ``run.py``).

Runs the workload untraced or traced, and writes one JSON document with the
metrics, the failure list, the timing budget and the diagnostics to
``--out``. The parent sets ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import measure
    import schedule
    import spec
    from workloads import Run

    plan = schedule.PLANNERS[args.workload](args.seed, args.scale)
    run = Run(plan, traced=bool(args.traced))
    run.run()
    norm = measure.Normalised(run)

    units = {m.name: m.unit for m in spec.UNTRACED + spec.PER_LAYER}
    values = measure.end_to_end(run, norm)
    layers = {}
    if run.recorder is not None:
        layers = measure.per_layer(run, norm)
        trace_path = Path(args.out).with_name(f"trace_{args.workload}.jsonl")
        run.recorder.write_jsonl(str(trace_path), origin=run.window.starts[0])

    total = time.perf_counter() - started
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.traced),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in layers.items()},
        "diagnostics": measure.diagnostics(run, norm),
        "kernel_us": {
            "interp_p10": measure.percentile(run.sampler.interp, 0.10) * 1e6,
            "interp_p50": measure.percentile(run.sampler.interp, 0.50) * 1e6,
            "native_p10": measure.percentile(run.sampler.native, 0.10) * 1e6,
            "native_p50": measure.percentile(run.sampler.native, 0.50) * 1e6,
            "samples": len(run.sampler.times),
        },
        "normalised_latency_s": norm.total_s,
        "samples": measure.sample_counts(norm),
        "schedule_sha256": plan.sha256(),
        "spans": len(run.recorder.spans) if run.recorder is not None else 0,
        "span_counts": measure.span_counts(run) if run.recorder is not None else {},
        "counter_deltas": run.deltas,
        "timing": {
            "setup_wall_s": run.setup_wall_s,
            "timed_wall_s": run.window.wall_s,
            "calibration_s": run.sampler.spent_s,
            "total_wall_s": total,
        },
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", ""),
        },
    }
    Path(args.out).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

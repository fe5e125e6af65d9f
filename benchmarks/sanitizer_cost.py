"""What the runtime sanitizers cost a long run, against a plain one.

Submits N frames through ``Client.submit`` on a solo-ordered framework, once
plain and once per sanitizer spec, each in a fresh process, and prints the
wall time of the whole run (for a sanitized one, ``finalize`` included: that
is where each peer's whole chain and index are checked), the ms per submit
over the last quarter of the run, and the ratio to the plain run. Each
figure is the median of 5 rounds; a round runs plain, then each spec, so a
ratio divides two runs made side by side, and the ratios' range is printed
beside their median. A sanitizer whose per-commit work grows with height
shows as a last-quarter cost that grows with N.

    PYTHONPATH=src python benchmarks/sanitizer_cost.py --submits 1600
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

ROUNDS = 5


def run(submits: int, spec: str) -> dict:
    from repro.core import Client, Framework, FrameworkConfig
    from repro.trust import SourceTier

    framework = Framework(FrameworkConfig(consensus="solo", sanitize=spec))
    client = Client(framework, framework.register_source("cam", tier=SourceTier.TRUSTED))
    quarter = submits - submits // 4
    start = time.perf_counter()
    for i in range(submits):
        if i == quarter:
            last_quarter = time.perf_counter()
        client.submit(b"frame-%d" % i, {"timestamp": float(i), "camera_id": "cam"})
    end = time.perf_counter()
    if framework.sanitizer is not None:
        assert framework.sanitizer.finalize().ok
    done = time.perf_counter()
    return {
        "total_s": done - start,
        "last_quarter_ms": (end - last_quarter) * 1e3 / (submits - quarter),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--submits", type=int, default=1600)
    parser.add_argument("--spec", action="append", help="sanitizer spec (repeatable)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.submits < 4:
        parser.error("--submits must be at least 4 (the last quarter is timed)")
    if args.child is not None:
        print(json.dumps(run(args.submits, args.child)))
        return
    specs = ["", *(args.spec or ["all"])]
    runs: dict[str, list[dict]] = {spec: [] for spec in specs}
    for _ in range(ROUNDS):
        for spec in specs:
            out = subprocess.run(
                [sys.executable, __file__, "--submits", str(args.submits), "--child", spec],
                check=True, capture_output=True, text=True,
            ).stdout
            runs[spec].append(json.loads(out))
    for spec, results in runs.items():
        ratios = [r["total_s"] / p["total_s"] for r, p in zip(results, runs[""])]
        print(
            f"{spec or 'plain':<12} "
            f"total {statistics.median(r['total_s'] for r in results):7.2f} s  "
            f"last quarter "
            f"{statistics.median(r['last_quarter_ms'] for r in results):6.2f} ms/submit  "
            f"x{statistics.median(ratios):.2f} of plain "
            f"(x{min(ratios):.2f}-{max(ratios):.2f})"
        )


if __name__ == "__main__":
    main()

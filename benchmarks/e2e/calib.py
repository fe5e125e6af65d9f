"""Speed normalisation: a calibration kernel interleaved with the timed ops.

The sandbox changes speed under the benchmark: over three minutes the median
latency of the same 20 submits moved with a coefficient of variation of
0.19, in phases of one to a few seconds. Interpreter work (loops, JSON,
small-object churn) slows by up to 1.4x in those phases while native hashing
of a large buffer hardly moves (cv 0.04), so the kernel has two parts, timed
separately, and a workload's speed index mixes them by the share of native
hashing in its wall time (``NATIVE_SHARE``).

The generator runs the ~1 ms kernel *outside* every timed operation; an
operation's speed index is the median kernel time around it over the
checked-in reference, and every reported time is latency / index.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import statistics
import time

# Kernel times on the reference box at full speed, in microseconds: the
# fastest decile of the kernel samples of the builder's baseline runs.
# Fixed once; a non-benchmark PR never edits them.
CALIB_REF_US = 550.0          # interpreter part
CALIB_REF_NATIVE_US = 186.0   # native part

# Share of a workload's wall time that is native hashing of large buffers
# (ipfs chunk hashing, payload sha256), from the first traced baseline.
NATIVE_SHARE = {"ingest_large": 0.4}

SAMPLE_EVERY_S = 0.025      # one kernel run per this much timed work (<= 5 % of wall)
WINDOW_S = 2.0              # an op's index is the median kernel time this wide around it
MIN_WINDOW_SAMPLES = 5

_BUFFER = bytes(range(256)) * 1024   # fixed 256 KiB
_DOC = {
    f"cam-{i:03d}": {
        "dim": "camera",
        "entries": [[hashlib.sha256(b"%d/%d" % (i, j)).hexdigest(), j] for j in range(6)],
    }
    for i in range(30)
}


def kernel() -> tuple[float, float]:
    """Run the kernel once; returns ``(interpreter seconds, native seconds)``.

    The interpreter part does what the program's hot paths do — an integer
    loop, a sorted-key JSON round trip, many small hashes — and the native
    part one sha256 over a buffer that does not fit in L1.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(2500):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    json.loads(json.dumps(_DOC, sort_keys=True, separators=(",", ":")))
    for i in range(150):
        hashlib.sha256(b"leaf-%d" % i).hexdigest()
    mid = time.perf_counter()
    hashlib.sha256(_BUFFER).digest()
    return mid - start, time.perf_counter() - mid


class SpeedSampler:
    """Collects kernel samples and answers "how slow was the box at time t"."""

    def __init__(self, workload: str) -> None:
        self.native_share = NATIVE_SHARE.get(workload, 0.0)
        self.times: list[float] = []       # perf_counter at sample start
        self.interp: list[float] = []      # interpreter part, seconds
        self.native: list[float] = []      # native part, seconds
        self.spent_s = 0.0                 # total time spent in the kernel
        self._since = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            now = time.perf_counter()
            interp, native = kernel()
            self.times.append(now)
            self.interp.append(interp)
            self.native.append(native)
            self.spent_s += interp + native
        self._since = 0.0

    def after_op(self, latency_s: float) -> None:
        """Call between timed ops; samples once enough timed work has passed."""
        self._since += latency_s
        if self._since >= SAMPLE_EVERY_S:
            self.sample()

    def index_between(self, start: float, end: float) -> float:
        """Speed index of the interval: median kernel time of the samples in
        (or, if too few, nearest to) it, over the reference. > 1 is slow."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_WINDOW_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo = max(0, lo - 1)
            hi = min(len(self.times), hi + 1)
        if hi == lo:
            raise RuntimeError("no calibration sample taken")
        interp = statistics.median(self.interp[lo:hi]) * 1e6 / CALIB_REF_US
        if not self.native_share:
            return interp
        native = statistics.median(self.native[lo:hi]) * 1e6 / CALIB_REF_NATIVE_US
        return (1 - self.native_share) * interp + self.native_share * native

    def index_at(self, t: float) -> float:
        return self.index_between(t - WINDOW_S / 2, t + WINDOW_S / 2)

    def indices(self, mids: list[float]) -> list[float]:
        """index_at for many times, computed once per 0.1 s cell."""
        cache: dict[int, float] = {}
        out = []
        for t in mids:
            cell = int(t * 10)
            if cell not in cache:
                cache[cell] = self.index_at(t)
            out.append(cache[cell])
        return out

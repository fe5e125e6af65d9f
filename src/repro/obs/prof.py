"""Deterministic cost-center profiler for the hot path.

``pipeline_breakdown()`` and ``critical_path()`` attribute wall time to
*stages* (spans) and nodes; this module attributes it to *cost centers* —
``crypto.sign``, ``serialize.canonical_json``, ``consensus.order`` — below
the span level, so "the fixed overhead is dominated by signing/serialization"
becomes a measured table instead of a guess. A center holds only work done
inside its probe: time something spent waiting while other work ran is not
a center.

The profiler owns no probe: it counts the probes of :mod:`repro.obs.probe`
that name a center, ``profiled(...)`` frames and spans opened with a
``center``. :func:`enable_profiler` installs a process-global
:class:`Profiler`, which then keeps exact inclusive and exclusive (self)
seconds, calls and bytes per ``(node, center)``. Centers nest — a
``crypto.hash`` frame inside a ``crypto.merkle`` frame subtracts from the
parent's exclusive time, so exclusive times sum without double counting.
The node is that of the innermost retained span, ``client`` outside any,
and that span's own record (:attr:`~repro.obs.probe.Span.centers`) gets the
calls and exclusive seconds too: :mod:`repro.obs.breakdown` reads them from
there for the per-stage center rows and for
:func:`~repro.obs.breakdown.invoke_coverage`.

Determinism: :meth:`Profiler.fingerprint` hashes **call counts only**
(never seconds, never bytes — payload byte lengths can embed wall-clock
timestamps), so two runs of a seeded scenario produce the same
fingerprint even though their timings differ. The fingerprint is built
with :mod:`json` directly rather than ``canonical_json`` — the latter is
itself a profiled center and must not record while being summarized.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.obs.probe import CLIENT_NODE, Span, install, installed, profiled

__all__ = [
    "CenterStat",
    "ProfileReport",
    "Profiler",
    "profiled",
    "enable_profiler",
    "disable_profiler",
    "get_profiler",
    "set_profiler",
    "profiling",
]


@dataclass(frozen=True)
class CenterStat:
    """Aggregated totals for one cost center on one node."""

    node: str
    center: str
    calls: int
    inclusive_s: float
    exclusive_s: float
    n_bytes: int

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "center": self.center,
            "calls": self.calls,
            "inclusive_s": self.inclusive_s,
            "exclusive_s": self.exclusive_s,
            "n_bytes": self.n_bytes,
        }


@dataclass(frozen=True)
class ProfileReport:
    """Snapshot of a profiler: centers ranked by exclusive time."""

    centers: tuple[CenterStat, ...]
    fingerprint: str

    @property
    def total_exclusive_s(self) -> float:
        return sum(c.exclusive_s for c in self.centers)

    def top(self, n: int = 20) -> tuple[CenterStat, ...]:
        return self.centers[:n]

    def render_lines(self, top_n: int = 20) -> list[str]:
        """Human table of the top centers."""
        from repro.bench.report import format_table

        total = self.total_exclusive_s or 1.0
        rows = [
            [
                stat.node,
                stat.center,
                stat.calls,
                f"{stat.exclusive_s * 1e3:.3f}",
                f"{stat.inclusive_s * 1e3:.3f}",
                stat.n_bytes,
                f"{stat.exclusive_s / total * 100:.1f}%",
            ]
            for stat in self.top(top_n)
        ]
        return format_table(
            f"cost centers (top {min(top_n, len(self.centers))} of {len(self.centers)} by exclusive time)",
            ["node", "center", "calls", "excl ms", "incl ms", "bytes", "share"],
            rows,
        ).splitlines()

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "centers": [c.to_dict() for c in self.centers],
        }

    def series(self) -> dict[str, list[float]]:
        """v2 BENCH envelope series: per-center calls and exclusive time.

        Aggregated across nodes. ``<center>_calls`` is seed-deterministic
        and gates EXACT under ``repro bench-diff``'s classifier;
        ``<center>_excl_s`` ends in ``_s`` and gates at the wall-time
        tolerance. Byte counts are deliberately excluded: payloads embed
        wall-clock timestamps, so their serialized lengths are not stable
        run to run.
        """
        calls: dict[str, int] = {}
        excl: dict[str, float] = {}
        for stat in self.centers:
            calls[stat.center] = calls.get(stat.center, 0) + stat.calls
            excl[stat.center] = excl.get(stat.center, 0.0) + stat.exclusive_s
        series: dict[str, list[float]] = {}
        for center in sorted(calls):
            series[f"{center}_calls"] = [float(calls[center])]
            series[f"{center}_excl_s"] = [excl[center]]
        return series


class Profiler:
    """Counts the probes that name a center; install via :func:`enable_profiler`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._mutex = threading.Lock()
        # (node, center) -> [calls, inclusive_s, exclusive_s, n_bytes]
        self._centers: dict[tuple[str, str], list] = {}

    # -- recording -----------------------------------------------------------

    def _record(
        self,
        center: str,
        inclusive_s: float,
        exclusive_s: float,
        n_bytes: int,
        span: Span | None = None,
    ) -> None:
        """Count one closed center under ``span``, the innermost retained
        span holding it (itself, when it names the center)."""
        node = CLIENT_NODE if span is None else span.node
        with self._mutex:
            acc = self._centers.setdefault((node, center), [0, 0.0, 0.0, 0])
            acc[0] += 1
            acc[1] += inclusive_s
            acc[2] += exclusive_s
            acc[3] += n_bytes
            if span is not None:
                if span.centers is None:
                    span.centers = {}
                sacc = span.centers.setdefault(center, [0, 0.0])
                sacc[0] += 1
                sacc[1] += exclusive_s

    # -- snapshots -----------------------------------------------------------

    def center_stats(self) -> list[CenterStat]:
        with self._mutex:
            return [
                CenterStat(node, center, acc[0], acc[1], acc[2], acc[3])
                for (node, center), acc in self._centers.items()
            ]

    def fingerprint(self) -> str:
        """sha256 over call counts only — seed-deterministic by design."""
        with self._mutex:
            doc = {
                "centers": {
                    f"{node}|{center}": acc[0]
                    for (node, center), acc in self._centers.items()
                },
            }
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def report(self) -> ProfileReport:
        centers = sorted(
            self.center_stats(), key=lambda s: (-s.exclusive_s, s.node, s.center)
        )
        return ProfileReport(
            centers=tuple(centers),
            fingerprint=self.fingerprint(),
        )


# ---------------------------------------------------------------------------
# Process-global profiler
# ---------------------------------------------------------------------------


def get_profiler() -> Profiler | None:
    return installed()[1]


def set_profiler(profiler: Profiler | None) -> None:
    install(installed()[0], profiler)


def enable_profiler(clock: Callable[[], float] = time.perf_counter) -> Profiler:
    profiler = Profiler(clock=clock)
    set_profiler(profiler)
    return profiler


def disable_profiler() -> None:
    set_profiler(None)


@contextmanager
def profiling(clock: Callable[[], float] = time.perf_counter) -> Iterator[Profiler]:
    """Scoped enable/disable, restoring whatever was installed before."""
    previous = get_profiler()
    profiler = enable_profiler(clock=clock)
    try:
        yield profiler
    finally:
        set_profiler(previous)


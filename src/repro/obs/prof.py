"""Deterministic cost-center profiler for the hot path.

``pipeline_breakdown()`` and ``repro critpath`` attribute wall time to
*stages* (spans) and nodes; this module attributes it to *cost centers* —
``crypto.sign``, ``serialize.canonical_json``, ``consensus.order`` — below
the span level, so "the fixed overhead is dominated by signing/serialization"
becomes a measured table instead of a guess. A center holds only work done
inside its frame: time something spent waiting while other work ran is not
a center.

Design mirrors :mod:`repro.obs.tracer`:

* Disabled by default. :func:`profiled` performs one global read and
  returns a shared no-op probe when no profiler is installed — the hot
  path allocates nothing and takes no locks.
* :func:`enable_profiler` installs a process-global :class:`Profiler`;
  every ``profiled(...)`` block then records a *frame*: exact inclusive
  and exclusive (self) time, call count, and optional byte count, keyed
  by ``(node, center)``. Frames nest — a ``crypto.hash`` frame inside a
  ``crypto.merkle`` frame subtracts from the parent's exclusive time, so
  exclusive times sum without double counting.
* Frames attach to the enclosing tracer span (when tracing is on), which
  is how :func:`repro.obs.breakdown.pipeline_breakdown` decomposes each
  pipeline stage into cost centers, and how
  :func:`repro.obs.breakdown.invoke_coverage` checks what fraction of
  ``fabric.invoke`` wall time the named centers explain.
* The node label is the enclosing span's :attr:`Span.node` — the same
  value the critical path and the Chrome trace report; frames outside any
  span are ``client`` work.

Determinism: :meth:`Profiler.fingerprint` hashes **call counts only**
(never seconds, never bytes — payload byte lengths can embed wall-clock
timestamps), so two runs of a seeded scenario produce the same
fingerprint even though their timings differ. The fingerprint is built
with :mod:`json` directly rather than ``canonical_json`` — the latter is
itself a profiled center and must not record while being summarized.

Memory: per-span center tables are kept for every span that contained at
least one frame and are not evicted (the tracer ring bounds live spans;
a scenario run keeps this in the tens of thousands of small dicts).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.obs.span import CLIENT_NODE
from repro.obs.tracer import current_span

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
    "collapsed_stacks",
    "write_collapsed",
]

# The innermost open frame in this execution context (mirrors the
# tracer's ``_current_span``).
_current_frame: ContextVar["_Frame | None"] = ContextVar(
    "repro_obs_prof_frame", default=None
)


class _NoopProbe:
    """Shared do-nothing probe returned by :func:`profiled` when disabled.

    ``__slots__ = ()`` and a module-level singleton keep the disabled hot
    path allocation-free, exactly like the tracer's ``NOOP_SPAN``.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopProbe":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def add_bytes(self, n: int) -> "_NoopProbe":
        return self


_NOOP = _NoopProbe()


class _Frame:
    """One live ``profiled(...)`` region; records itself on exit."""

    __slots__ = ("center", "n_bytes", "path", "child_s", "start_s", "_profiler", "_token")

    def __init__(self, profiler: "Profiler", center: str, n_bytes: int) -> None:
        self._profiler = profiler
        self.center = center
        self.n_bytes = n_bytes
        self.child_s = 0.0
        self.path: tuple[str, ...] = ()
        self.start_s = 0.0
        self._token = None

    def add_bytes(self, n: int) -> "_Frame":
        self.n_bytes += n
        return self

    def __enter__(self) -> "_Frame":
        parent = _current_frame.get()
        self.path = parent.path + (self.center,) if parent is not None else (self.center,)
        self._token = _current_frame.set(self)
        self.start_s = self._profiler.clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        profiler = self._profiler
        inclusive = profiler.clock() - self.start_s
        _current_frame.reset(self._token)
        parent = _current_frame.get()
        if parent is not None:
            parent.child_s += inclusive
        exclusive = inclusive - self.child_s
        if exclusive < 0.0:
            exclusive = 0.0
        profiler._record(self.center, self.path, inclusive, exclusive, self.n_bytes)
        return False


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
    """Accumulates cost-center frames; install via :func:`enable_profiler`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._mutex = threading.Lock()
        # (node, center) -> [calls, inclusive_s, exclusive_s, n_bytes]
        self._centers: dict[tuple[str, str], list] = {}
        # (node, path) -> [calls, exclusive_s] — the cost-center tree.
        self._paths: dict[tuple[str, tuple[str, ...]], list] = {}
        # span_id -> center -> [calls, exclusive_s]
        self._span_centers: dict[str, dict[str, list]] = {}

    # -- recording -----------------------------------------------------------

    def _record(
        self,
        center: str,
        path: tuple[str, ...],
        inclusive_s: float,
        exclusive_s: float,
        n_bytes: int,
    ) -> None:
        span = current_span()
        if span is not None:
            span_id: str | None = span.span_id
            node = span.node
        else:
            span_id = None
            node = CLIENT_NODE
        with self._mutex:
            acc = self._centers.setdefault((node, center), [0, 0.0, 0.0, 0])
            acc[0] += 1
            acc[1] += inclusive_s
            acc[2] += exclusive_s
            acc[3] += n_bytes
            pacc = self._paths.setdefault((node, path), [0, 0.0])
            pacc[0] += 1
            pacc[1] += exclusive_s
            if span_id is not None:
                sacc = self._span_centers.setdefault(span_id, {}).setdefault(
                    center, [0, 0.0]
                )
                sacc[0] += 1
                sacc[1] += exclusive_s

    # -- snapshots -----------------------------------------------------------

    def center_stats(self) -> list[CenterStat]:
        with self._mutex:
            return [
                CenterStat(node, center, acc[0], acc[1], acc[2], acc[3])
                for (node, center), acc in self._centers.items()
            ]

    def path_stats(self) -> dict[tuple[str, tuple[str, ...]], tuple[int, float]]:
        with self._mutex:
            return {key: (acc[0], acc[1]) for key, acc in self._paths.items()}

    def span_center_seconds(self) -> dict[str, dict[str, tuple[int, float]]]:
        """``span_id -> center -> (calls, exclusive_s)`` for breakdowns."""
        with self._mutex:
            return {
                span_id: {c: (a[0], a[1]) for c, a in centers.items()}
                for span_id, centers in self._span_centers.items()
            }

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
# Process-global profiler (mirrors tracer._GLOBAL)
# ---------------------------------------------------------------------------

_PROFILER: Profiler | None = None


def profiled(center: str, n_bytes: int = 0) -> Any:
    """Open a cost-center frame; no-op (shared probe) when disabled.

    Usage::

        with profiled("serialize.canonical_json") as pf:
            data = ...
            pf.add_bytes(len(data))

    The returned probe supports ``add_bytes`` in both modes, so call
    sites never branch on whether profiling is enabled.
    """
    profiler = _PROFILER
    if profiler is None:
        return _NOOP
    return _Frame(profiler, center, n_bytes)


def get_profiler() -> Profiler | None:
    return _PROFILER


def set_profiler(profiler: Profiler | None) -> None:
    global _PROFILER
    _PROFILER = profiler


def enable_profiler(clock: Callable[[], float] = time.perf_counter) -> Profiler:
    profiler = Profiler(clock=clock)
    set_profiler(profiler)
    return profiler


def disable_profiler() -> None:
    set_profiler(None)


@contextmanager
def profiling(clock: Callable[[], float] = time.perf_counter) -> Iterator[Profiler]:
    """Scoped enable/disable, restoring whatever was installed before."""
    previous = _PROFILER
    profiler = enable_profiler(clock=clock)
    try:
        yield profiler
    finally:
        set_profiler(previous)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def collapsed_stacks(profiler: Profiler | None = None) -> list[str]:
    """flamegraph.pl-compatible lines: ``node;center;... <microseconds>``.

    Weights are exclusive time in integer microseconds, one line per
    distinct (node, frame path); feed straight into ``flamegraph.pl``.
    """
    profiler = profiler if profiler is not None else _PROFILER
    if profiler is None:
        return []
    lines = []
    for (node, path), (_calls, excl_s) in sorted(profiler.path_stats().items()):
        frames = ";".join((node,) + path)
        lines.append(f"{frames} {max(0, round(excl_s * 1e6))}")
    return lines


def write_collapsed(path: str, profiler: Profiler | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(collapsed_stacks(profiler)) + "\n")

"""Deterministic cost-center profiler for the hot path.

``pipeline_breakdown()`` and ``repro critpath`` attribute wall time to
*stages* (spans) and nodes; this module attributes it to *cost centers* —
``crypto.sign``, ``serialize.canonical_json``, ``queue.wait`` — below the
span level, so "the fixed overhead is dominated by signing/serialization"
becomes a measured table instead of a guess.

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
  pipeline stage into cost centers, and how :func:`invoke_coverage`
  checks what fraction of ``fabric.invoke`` wall time the named centers
  explain.
* The node label is resolved from the enclosing span chain exactly like
  the critical-path extractor: the nearest span carrying a ``node`` /
  ``peer`` / ``replica`` attr (or an ``orderer`` attr) names the node;
  everything else is ``client`` work.

Queue waits are a first-class row: the ``queue.wait`` center aggregates
across all logical queues (the orderer's batch queue), with per-name detail
kept separately (:class:`QueueStat`) and — when a registry is attached —
exported as the ``queue_wait_seconds_total{queue}`` counter plus a latency
histogram.

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
from functools import wraps
from typing import Any, Callable, Iterator

from repro.obs.span import Span
from repro.obs.tracer import LATENCY_BUCKETS, Tracer, current_span

__all__ = [
    "CenterStat",
    "QueueStat",
    "ProfileReport",
    "Profiler",
    "profiled",
    "profiled_call",
    "enable_profiler",
    "disable_profiler",
    "get_profiler",
    "set_profiler",
    "profiling",
    "invoke_coverage",
    "collapsed_stacks",
    "write_collapsed",
    "chrome_trace_tree",
    "write_chrome_trace_tree",
]

# Synthetic center for stall accounting.
QUEUE_WAIT = "queue.wait"

# Node label for frames recorded outside any node-attributed span.
CLIENT_NODE = "client"

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
class QueueStat:
    """Enqueue→start delay totals for one named work queue."""

    name: str
    tasks: int
    wait_s: float

    def to_dict(self) -> dict:
        return {"name": self.name, "tasks": self.tasks, "wait_s": self.wait_s}


@dataclass(frozen=True)
class ProfileReport:
    """Snapshot of a profiler: centers ranked by exclusive time."""

    centers: tuple[CenterStat, ...]
    queues: tuple[QueueStat, ...]
    fingerprint: str

    @property
    def total_exclusive_s(self) -> float:
        return sum(c.exclusive_s for c in self.centers)

    def top(self, n: int = 20) -> tuple[CenterStat, ...]:
        return self.centers[:n]

    def render_lines(self, top_n: int = 20) -> list[str]:
        """Human tables: top centers, then queue detail."""
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
        lines = format_table(
            f"cost centers (top {min(top_n, len(self.centers))} of {len(self.centers)} by exclusive time)",
            ["node", "center", "calls", "excl ms", "incl ms", "bytes", "share"],
            rows,
        ).splitlines()
        if self.queues:
            lines.append("")
            lines.extend(
                format_table(
                    "queue waits",
                    ["queue", "tasks", "wait ms"],
                    [[s.name, s.tasks, f"{s.wait_s * 1e3:.3f}"] for s in self.queues],
                ).splitlines()
            )
        return lines

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "centers": [c.to_dict() for c in self.centers],
            "queues": [s.to_dict() for s in self.queues],
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

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        registry: Any | None = None,
    ) -> None:
        self.clock = clock
        self.registry = registry
        self._mutex = threading.Lock()
        # (node, center) -> [calls, inclusive_s, exclusive_s, n_bytes]
        self._centers: dict[tuple[str, str], list] = {}
        # (node, path) -> [calls, exclusive_s] — the cost-center tree.
        self._paths: dict[tuple[str, tuple[str, ...]], list] = {}
        # span_id -> center -> [calls, exclusive_s]
        self._span_centers: dict[str, dict[str, list]] = {}
        # queue name -> [tasks, wait_s]
        self._queues: dict[str, list] = {}
        # span_id -> resolved node label (walk the parent chain once).
        self._span_nodes: dict[str, str] = {}

    # -- recording -----------------------------------------------------------

    def _node_for(self, span: Span) -> str:
        """Node owning ``span``: nearest enclosing node/peer/replica attr.

        Mirrors the critical-path extractor's attribution. Walks the
        *live* span chain via the contextvar tokens, so it must only be
        called while the span is still open (frame exits always are).
        """
        cached = self._span_nodes.get(span.span_id)
        if cached is not None:
            return cached
        node = CLIENT_NODE
        cur: Any = span
        while isinstance(cur, Span):
            attrs = cur.attrs
            label = attrs.get("node") or attrs.get("peer") or attrs.get("replica")
            if label is not None:
                node = str(label)
                break
            if "orderer" in attrs:
                node = "orderer"
                break
            token = cur._token
            if token is None:
                break
            cur = token.old_value  # the span this one stacked on
        self._span_nodes[span.span_id] = node
        return node

    def _record(
        self,
        center: str,
        path: tuple[str, ...],
        inclusive_s: float,
        exclusive_s: float,
        n_bytes: int,
    ) -> None:
        span = current_span()
        if isinstance(span, Span):
            span_id: str | None = span.span_id
            node = self._node_for(span)
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

    def record_queue_wait(self, name: str, seconds: float) -> None:
        """Charge one task's enqueue→start delay to the ``queue.wait`` center.

        Recorded as a root-level row: the delay overlaps whatever else ran
        meanwhile, so it is never subtracted from an open frame.
        """
        if seconds < 0.0:
            seconds = 0.0
        self._record(QUEUE_WAIT, (QUEUE_WAIT,), seconds, seconds, 0)
        with self._mutex:
            acc = self._queues.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += seconds
        if self.registry is not None:
            self.registry.counter("queue_wait_seconds_total", {"queue": name}).inc(seconds)
            self.registry.histogram(
                "queue_wait_seconds", LATENCY_BUCKETS, labels={"queue": name}
            ).observe(seconds)

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

    def queue_stats(self) -> list[QueueStat]:
        with self._mutex:
            return [
                QueueStat(name, acc[0], acc[1])
                for name, acc in sorted(self._queues.items())
            ]

    def fingerprint(self) -> str:
        """sha256 over call counts only — seed-deterministic by design."""
        with self._mutex:
            doc = {
                "centers": {
                    f"{node}|{center}": acc[0]
                    for (node, center), acc in self._centers.items()
                },
                "queues": {name: acc[0] for name, acc in self._queues.items()},
            }
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def report(self) -> ProfileReport:
        centers = sorted(
            self.center_stats(), key=lambda s: (-s.exclusive_s, s.node, s.center)
        )
        return ProfileReport(
            centers=tuple(centers),
            queues=tuple(self.queue_stats()),
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


def profiled_call(center: str) -> Callable:
    """Decorator form; checks enablement at *call* time, so functions
    decorated at import (profiler off) still profile once enabled."""

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            profiler = _PROFILER
            if profiler is None:
                return fn(*args, **kwargs)
            with _Frame(profiler, center, 0):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def get_profiler() -> Profiler | None:
    return _PROFILER


def set_profiler(profiler: Profiler | None) -> None:
    global _PROFILER
    _PROFILER = profiler


def enable_profiler(
    registry: Any | None = None, clock: Callable[[], float] = time.perf_counter
) -> Profiler:
    profiler = Profiler(clock=clock, registry=registry)
    set_profiler(profiler)
    return profiler


def disable_profiler() -> None:
    set_profiler(None)


@contextmanager
def profiling(
    registry: Any | None = None, clock: Callable[[], float] = time.perf_counter
) -> Iterator[Profiler]:
    """Scoped enable/disable, restoring whatever was installed before."""
    previous = _PROFILER
    profiler = enable_profiler(registry=registry, clock=clock)
    try:
        yield profiler
    finally:
        set_profiler(previous)


# ---------------------------------------------------------------------------
# Coverage & export
# ---------------------------------------------------------------------------


def invoke_coverage(
    tracer: Tracer | None,
    profiler: Profiler | None = None,
    root_name: str = "fabric.invoke",
) -> float:
    """Fraction of ``root_name`` wall time explained by cost centers.

    For every finished root span, sums the exclusive seconds of all
    frames attached to the span or any of its execution-order
    descendants (which is where remote consensus/commit work lands),
    divided by total root wall time. This is the ≥ 0.9 acceptance
    number ``repro prof --min-coverage`` gates on.
    """
    profiler = profiler if profiler is not None else _PROFILER
    if tracer is None or profiler is None:
        return 0.0
    span_centers = profiler.span_center_seconds()
    wall = 0.0
    attributed = 0.0
    for root in tracer.spans(root_name):
        if not root.finished:
            continue
        wall += root.duration_s
        for span in [root, *tracer.descendants(root, view="exec")]:
            for _calls, seconds in span_centers.get(span.span_id, {}).values():
                attributed += seconds
    if wall <= 0.0:
        return 0.0
    return attributed / wall


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


def chrome_trace_tree(profiler: Profiler | None = None) -> dict:
    """Chrome ``traceEvents`` view of the aggregated cost-center tree.

    One synthetic process per node, one ``X`` event per frame path with
    duration = aggregate inclusive time and children laid out
    sequentially from the parent's start. Timestamps are synthetic tree
    coordinates (this is an aggregate profile, not a timeline); load in
    ``chrome://tracing`` / Perfetto to browse nesting visually.
    """
    events: list[dict] = []
    profiler = profiler if profiler is not None else _PROFILER
    if profiler is None:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    stats = profiler.path_stats()
    nodes = sorted({node for node, _path in stats})
    for pid, node in enumerate(nodes, start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": node}}
        )
        node_paths = {path: v for (n, path), v in stats.items() if n == node}
        # Inclusive µs per path = own exclusive + all recorded extensions.
        incl: dict[tuple[str, ...], float] = {
            path: excl for path, (_c, excl) in node_paths.items()
        }
        for path in list(incl):
            for depth in range(1, len(path)):
                incl.setdefault(path[:depth], 0.0)
        for path in sorted(incl, key=len, reverse=True):
            if len(path) > 1:
                incl[path[:-1]] += incl[path]
        children: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        roots: list[tuple[str, ...]] = []
        for path in sorted(incl):
            if len(path) == 1:
                roots.append(path)
            else:
                children.setdefault(path[:-1], []).append(path)

        def emit(path: tuple[str, ...], ts: int, pid: int = pid) -> int:
            dur = max(1, round(incl[path] * 1e6))
            calls = node_paths.get(path, (0, 0.0))[0]
            events.append(
                {
                    "name": path[-1],
                    "cat": "prof",
                    "ph": "X",
                    "pid": pid,
                    "tid": 1,
                    "ts": ts,
                    "dur": dur,
                    "args": {"calls": calls, "path": ";".join(path)},
                }
            )
            cursor = ts
            for child in children.get(path, ()):
                cursor += emit(child, cursor)
            return dur

        cursor = 0
        for root in roots:
            cursor += emit(root, cursor)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace_tree(path: str, profiler: Profiler | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace_tree(profiler), fh, indent=1)

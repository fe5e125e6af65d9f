"""The tracer: retains finished spans and answers queries over them.

Layers never thread trace handles through signatures — each instrumented
site calls :func:`repro.obs.tracer.span` (the module-level entry point) and
parentage is resolved from the current-probe :mod:`contextvars` variable
of :mod:`repro.obs.probe`, so traces nest correctly through any call depth
and stay correct when callers bring threads of their own.

Tracing is **opt-in and process-global**: :func:`enable` installs a tracer,
:func:`disable` removes it. While disabled, :func:`span` returns the shared
no-op probe after a single guard check — instrumented hot paths cost one
global read and one ``is None`` comparison, with no allocation (verified by
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

# span, current_span and current_context are re-exported for the sites.
from repro.obs.probe import (
    Span,
    SpanContext,
    current_context,
    current_span,
    install,
    installed,
    span,
)

# Default retention for the process-global tracer installed by
# :func:`enable`: long-running workloads keep the most recent spans in a
# bounded ring instead of growing without limit. Explicit ``Tracer(...)``
# construction stays unbounded unless asked.
DEFAULT_MAX_SPANS = 262_144

# Default histogram buckets for span latencies (seconds): 100 µs .. 10 s.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Tracer:
    """Produces nested spans and keeps every finished one for analysis.

    ``registry`` (optional) unifies tracing with metrics: each finished
    span's duration is observed into a ``span_seconds{name=...}`` histogram
    and counted in ``spans_total{name=..., status=...}``. The tracer looks
    each of those series up once, on the first span of its name (and
    status), and keeps the handle.

    ``max_spans`` (optional) bounds retention: the finished list becomes a
    ring buffer that evicts the *oldest* span once full, counting each
    eviction in :attr:`dropped` (and ``spans_dropped_total`` when a
    registry is attached). Metrics still see every span — only the
    retained-for-analysis window is bounded.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        registry=None,
        max_spans: int | None = None,
    ) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be >= 1 (or None for unbounded)")
        self.clock = clock
        self.registry = registry
        self.max_spans = max_spans
        self.dropped = 0
        self.finished: deque[Span] = deque()
        # Parent -> children and root indexes over `finished`, maintained on
        # span finish and on ring-buffer eviction, so children()/roots()
        # are O(answer) instead of a scan over every retained span (which
        # made tree walks over large traces O(n^2)).
        self._children_ix: dict[str, dict[str, Span]] = {}
        # Remote spans only: exec-context parent -> the remote spans whose
        # delivery ran inside it (their causal parent is elsewhere).
        self._exec_ix: dict[str, dict[str, Span]] = {}
        self._roots_ix: dict[str, Span] = {}
        # Metric handles per span name / (name, status), resolved once.
        self._seconds: dict[str, Any] = {}
        self._totals: dict[tuple[str, str], Any] = {}

    # -- span lifecycle ---------------------------------------------------------

    def span(
        self,
        name: str,
        attrs: dict[str, Any] | None = None,
        remote_parent: SpanContext | None = None,
    ) -> Span:
        """Create a span; activate it with ``with``.

        ``remote_parent`` — a :class:`SpanContext` extracted from an
        incoming message — overrides the ambient (contextvars) parent, so
        the span joins the *sender's* trace: the causal edge, not the
        event-loop call stack.
        """
        return Span(name, self, attrs, remote_parent=remote_parent)

    def _exit(self, span: Span) -> None:
        """Retain a span that just closed; its center record, if any, goes
        with it when the ring evicts it."""
        finished = self.finished
        if self.max_spans is not None and len(finished) == self.max_spans:
            self._unindex(finished.popleft())
            self.dropped += 1
            if self.registry is not None:
                self.registry.counter("spans_dropped_total").inc()
        finished.append(span)
        self._index(span)
        span.end_s = self.clock()
        if self.registry is not None:
            name = span.name
            seconds = self._seconds.get(name)
            if seconds is None:
                seconds = self._seconds[name] = self.registry.histogram(
                    "span_seconds", LATENCY_BUCKETS, labels={"name": name}
                )
            seconds.observe(span.duration_s)
            key = (name, span.status)
            total = self._totals.get(key)
            if total is None:
                total = self._totals[key] = self.registry.counter(
                    "spans_total", labels={"name": name, "status": span.status}
                )
            total.inc()

    # -- index maintenance ------------------------------------------------------

    def _index(self, span: Span) -> None:
        if span.parent_id is None:
            self._roots_ix[span.span_id] = span
        else:
            self._children_ix.setdefault(span.parent_id, {})[span.span_id] = span
        if span.remote and span.exec_parent_id is not None:
            self._exec_ix.setdefault(span.exec_parent_id, {})[span.span_id] = span

    def _unindex(self, span: Span) -> None:
        if span.parent_id is None:
            self._roots_ix.pop(span.span_id, None)
        else:
            bucket = self._children_ix.get(span.parent_id)
            if bucket is not None:
                bucket.pop(span.span_id, None)
                if not bucket:
                    del self._children_ix[span.parent_id]
        if span.remote and span.exec_parent_id is not None:
            bucket = self._exec_ix.get(span.exec_parent_id)
            if bucket is not None:
                bucket.pop(span.span_id, None)
                if not bucket:
                    del self._exec_ix[span.exec_parent_id]

    # -- queries ----------------------------------------------------------------

    def spans(self, name: str | None = None) -> list[Span]:
        if name is None:
            return list(self.finished)
        return [s for s in self.finished if s.name == name]

    def roots(self) -> list[Span]:
        return list(self._roots_ix.values())

    def children(self, span: Span, view: str = "causal") -> list[Span]:
        """Finished children of ``span``, in start order.

        Two views of the same spans:

        * ``"causal"`` (default) — children by parent link: a remote span
          (message delivery) hangs off the span that *sent* the message,
          which may have finished long before the delivery ran.
        * ``"exec"`` — children by execution context: a remote span hangs
          off the frame that ran its delivery, so child intervals nest
          inside the parent's. This is the view exclusive-time accounting
          (the Fig. 5/6 breakdown) needs.
        """
        bucket = self._children_ix.get(span.span_id)
        causal: Iterable[Span] = bucket.values() if bucket else ()
        if view == "causal":
            kids = list(causal)
        elif view == "exec":
            kids = [s for s in causal if not s.remote]
            exec_bucket = self._exec_ix.get(span.span_id)
            if exec_bucket:
                kids.extend(exec_bucket.values())
        else:
            raise ValueError(f"unknown children view {view!r}")
        return sorted(kids, key=lambda s: s.start_s)

    def descendants(self, span: Span, view: str = "causal") -> list[Span]:
        out: list[Span] = []
        frontier = [span]
        while frontier:
            node = frontier.pop()
            kids = self.children(node, view=view)
            out.extend(kids)
            frontier.extend(kids)
        return out

    def clear(self) -> None:
        self.finished.clear()
        self._children_ix.clear()
        self._exec_ix.clear()
        self._roots_ix.clear()


# ---------------------------------------------------------------------------
# Process-global tracer
# ---------------------------------------------------------------------------


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` while tracing is disabled."""
    return installed()[0]


def set_tracer(tracer: Tracer | None) -> None:
    install(tracer, installed()[1])


def enable(registry=None, max_spans: int | None = DEFAULT_MAX_SPANS) -> Tracer:
    """Install (and return) a fresh process-global tracer.

    Retention is bounded by default (:data:`DEFAULT_MAX_SPANS`, a ring
    buffer of the most recent spans); pass ``max_spans=None`` to keep
    everything, or a smaller bound for memory-constrained runs.
    """
    tracer = Tracer(registry=registry, max_spans=max_spans)
    set_tracer(tracer)
    return tracer


def disable() -> None:
    set_tracer(None)


@contextmanager
def enabled(registry=None, max_spans: int | None = DEFAULT_MAX_SPANS) -> Iterator[Tracer]:
    """Scoped tracing: install a fresh tracer, restore the old one after."""
    previous = get_tracer()
    tracer = enable(registry=registry, max_spans=max_spans)
    try:
        yield tracer
    finally:
        set_tracer(previous)

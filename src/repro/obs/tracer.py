"""The tracer: nested spans with contextvars-based propagation.

Layers never thread trace handles through signatures — each instrumented
site calls :func:`repro.obs.trace.span` (the module-level entry point) and
parentage is resolved from a :mod:`contextvars` current-span variable, so
traces nest correctly through any call depth and stay correct under
``asyncio`` or thread-per-request execution.

Tracing is **opt-in and process-global**: :func:`enable` installs a tracer,
:func:`disable` removes it. While disabled, :func:`span` returns a shared
no-op span after a single guard check — instrumented hot paths cost one
global read and one ``is None`` comparison, with no allocation (verified by
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterable, Iterator

from repro.obs.span import NOOP_SPAN, NoopSpan, Span, SpanContext, own_node

_current_span: ContextVar[Span | None] = ContextVar("repro_obs_current_span", default=None)

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
    and counted in ``spans_total{name=..., status=...}``.

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

    def _enter(self, span: Span) -> None:
        parent = _current_span.get()
        node = own_node(span.attrs)
        if parent is not None:
            span.exec_parent_id = parent.span_id
            span.node = parent.node if node is None else node
        elif node is not None:
            span.node = node
        remote = span._remote_parent
        if remote is not None:
            # Causal parent: the span that *sent* the message. The ambient
            # frame is kept separately (exec_parent_id) so time stays
            # nested under whatever ran the delivery.
            span.parent_id = remote.span_id
            span.trace_id = remote.trace_id
            span.remote = True
        elif parent is not None:
            span.parent_id = parent.span_id
            span.trace_id = parent.trace_id
        span._token = _current_span.set(span)
        span.start_s = self.clock()

    def _exit(self, span: Span, exc: BaseException | None) -> None:
        span.end_s = self.clock()
        if exc is not None:
            span.record_error(exc)
        if span._token is not None:
            _current_span.reset(span._token)
            span._token = None
        if self.max_spans is not None and len(self.finished) == self.max_spans:
            self._unindex(self.finished.popleft())
            self.dropped += 1
            if self.registry is not None:
                self.registry.counter("spans_dropped_total").inc()
        self.finished.append(span)
        self._index(span)
        if self.registry is not None:
            self.registry.histogram(
                "span_seconds", LATENCY_BUCKETS, labels={"name": span.name}
            ).observe(span.duration_s)
            self.registry.counter(
                "spans_total", labels={"name": span.name, "status": span.status}
            ).inc()

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

    def tree(self) -> list[dict[str, Any]]:
        """The forest of finished spans as nested dicts."""

        def build(span: Span) -> dict[str, Any]:
            node = span.to_dict()
            node["children"] = [build(c) for c in self.children(span)]
            return node

        return [build(r) for r in sorted(self.roots(), key=lambda s: s.start_s)]

    def tree_lines(self, max_attr_len: int = 40) -> list[str]:
        """Human-readable indented rendering of the span forest."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = ""
            if span.attrs:
                joined = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
                if len(joined) > max_attr_len:
                    joined = joined[: max_attr_len - 1] + "…"
                attrs = f"  [{joined}]"
            flag = "" if span.status == "ok" else f"  !! {span.error}"
            lines.append(
                f"{'  ' * depth}{span.name:<{max(1, 30 - 2 * depth)}} "
                f"{span.duration_s * 1e3:9.3f} ms{attrs}{flag}"
            )
            for child in self.children(span):
                walk(child, depth + 1)

        for root in sorted(self.roots(), key=lambda s: s.start_s):
            walk(root, 0)
        return lines

    def clear(self) -> None:
        self.finished.clear()
        self._children_ix.clear()
        self._exec_ix.clear()
        self._roots_ix.clear()


# ---------------------------------------------------------------------------
# Process-global tracer
# ---------------------------------------------------------------------------

_GLOBAL: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` while tracing is disabled."""
    return _GLOBAL


def set_tracer(tracer: Tracer | None) -> None:
    global _GLOBAL
    _GLOBAL = tracer


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


def span(
    name: str,
    attrs: dict[str, Any] | None = None,
    remote_parent: SpanContext | None = None,
) -> Span | NoopSpan:
    """Start a span on the global tracer; the no-op singleton when disabled.

    This is the call instrumented code makes. The disabled path is a single
    guard check returning a shared object — no allocation.
    """
    tracer = _GLOBAL
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, attrs, remote_parent=remote_parent)


def current_span() -> Span | None:
    """The innermost active span in this execution context, if any."""
    return _current_span.get()


def current_context() -> SpanContext | None:
    """The current span's injectable context, or ``None``.

    ``None`` both when tracing is disabled (checked first — the disabled
    path costs one global read) and when no span is active. This is what
    transports call to stamp outgoing messages.
    """
    if _GLOBAL is None:
        return None
    sp = _current_span.get()
    return None if sp is None else sp.context()


@contextmanager
def enabled(registry=None, max_spans: int | None = DEFAULT_MAX_SPANS) -> Iterator[Tracer]:
    """Scoped tracing: install a fresh tracer, restore the old one after."""
    previous = _GLOBAL
    tracer = enable(registry=registry, max_spans=max_spans)
    try:
        yield tracer
    finally:
        set_tracer(previous)

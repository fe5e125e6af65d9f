"""Probes: the one instrument of the observability layer.

A :class:`Span` is one timed, named region of the pipeline — an endorsement,
a consensus round, an IPFS add — and serves both the tracer and the
cost-center profiler, so a site opens one probe, never two:

* :func:`span` opens a probe the tracer **retains**, with attributes, a
  parent link and the error of any exception that escaped the region. When
  it names a cost ``center`` the profiler counts it too.
* :func:`profiled` opens a center-only probe, a *frame*: the profiler
  counts its calls, seconds and bytes, and the tracer never retains it.

One :mod:`contextvars` variable holds the innermost open probe, so probes
nest through any call depth, also on threads a caller brings. A center's
calls and exclusive seconds go onto the innermost retained span's own
record (:attr:`Span.centers`), which lives exactly as long as the span does
in the tracer's ring. With nothing installed, both entry points return the
shared :data:`NOOP_SPAN` after one global read of :data:`INSTALLED`, the
read hot paths also take to choose their bare path.

Span ids come from a process-wide counter, so traces of one run are stable.
Every span knows the *node* it ran on — the one attribution rule the
profiler, the critical path and the Chrome trace all read: its own
``node`` / ``peer`` / ``replica`` attribute (first present wins),
``orderer`` for an ``orderer`` attribute, otherwise the node of the span it
opened under, and ``client`` at the top.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.prof import Profiler
    from repro.obs.tracer import Tracer

_ids = itertools.count(1)

# Node of a span with no location attribute anywhere above it: the client
# process that drives submit/retrieve.
CLIENT_NODE = "client"

# Attributes that name a span's node, in precedence order.
_NODE_ATTRS = ("node", "peer", "replica", "orderer")

# (tracer, profiler) while either is installed, None while both are off: the
# one global every probe site reads first.
INSTALLED: "tuple[Tracer | None, Profiler | None] | None" = None

# The innermost open probe in this execution context.
_current: "ContextVar[Span | None]" = ContextVar("repro_obs_probe", default=None)


def next_span_id() -> str:
    return f"{next(_ids):08x}"


def own_node(attrs: dict[str, Any]) -> str | None:
    """The node named by a span's own attributes, or ``None``."""
    for key in _NODE_ATTRS:
        if key in attrs:
            return "orderer" if key == "orderer" else str(attrs[key])
    return None


@dataclass(frozen=True)
class SpanContext:
    """The injectable/extractable identity of a span (W3C traceparent style).

    Carried across process boundaries — in this codebase, stamped onto
    :class:`repro.net.message.Message` by ``SimNetwork.send`` — so a span
    opened on the receiving node can join the sender's trace as a *remote*
    child instead of starting a disconnected tree.
    """

    trace_id: str
    span_id: str


class Span:
    """One timed region. Use as ``with tracer.span("name") as sp:``.

    A span with a tracer is retained by it; one without (a frame) only
    carries a ``center`` for the profiler and keeps none of the span
    fields.
    """

    __slots__ = (
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "exec_parent_id",
        "remote",
        "node",
        "start_s",
        "end_s",
        "attrs",
        "status",
        "error",
        "centers",
        "center",
        "n_bytes",
        "child_s",
        "_tracer",
        "_profiler",
        "_owner",
        "_frame",
        "_token",
        "_remote_parent",
    )

    def __init__(
        self,
        name: str,
        tracer: "Tracer | None",
        attrs: dict[str, Any] | None = None,
        remote_parent: SpanContext | None = None,
        center: str | None = None,
        profiler: "Profiler | None" = None,
        n_bytes: int = 0,
    ) -> None:
        # The interval starts here: making a probe is bookkeeping like its
        # enter and exit, billed to its own stage or center, not to its
        # parent's self time (for a root span, the breakdown's unattributed
        # rest).
        if tracer is None:
            self.start_s: float = profiler.clock()
        else:
            self.start_s = tracer.clock()
            self.name = name
            self.span_id = next_span_id()
            self.trace_id: str = self.span_id  # overwritten on enter if nested
            self.parent_id: str | None = None
            # The ambient (call-stack) parent. Equal to parent_id for
            # ordinary spans; differs for remote spans, where parent_id is
            # the causal sender and exec_parent_id the span that ran the
            # delivery.
            self.exec_parent_id: str | None = None
            self.remote: bool = False  # True when parented across a message hop
            self.node: str = CLIENT_NODE  # resolved on enter, see the module docs
            self.end_s: float | None = None
            self.attrs: dict[str, Any] = attrs if attrs is not None else {}
            self.status: str = "ok"
            self.error: str | None = None
            # center -> [calls, exclusive_s] of the centers that closed in
            # this span and in no inner one; None until the first.
            self.centers: dict[str, list] | None = None
            self._remote_parent = remote_parent
        self.center = center
        self.n_bytes = n_bytes
        self.child_s = 0.0
        self._tracer = tracer
        self._profiler = profiler

    # -- recording --------------------------------------------------------------

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        if key in _NODE_ATTRS:
            # Spans already opened under this one keep the node they
            # inherited; location attributes are set before any child opens.
            self.node = own_node(self.attrs)
        return self

    def add_bytes(self, n: int) -> "Span":
        self.n_bytes += n
        return self

    def context(self) -> SpanContext:
        """This span's identity, injectable into an outgoing message."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def record_error(self, exc: BaseException) -> None:
        self.status = "error"
        self.error = f"{type(exc).__name__}: {exc}"

    # -- context manager --------------------------------------------------------

    def __enter__(self) -> "Span":
        # Two links, both to probes strictly above: the innermost retained
        # span (the node and the center record of a frame) and the
        # innermost center (which a center's inclusive time is taken off).
        parent = _current.get()
        if parent is None:
            owner = frame = None
        else:
            owner = parent if parent._tracer is not None else parent._owner
            frame = parent if parent.center is not None else parent._frame
        self._frame = frame
        if self._tracer is None:
            self._owner = owner
            self._token = _current.set(self)
            return self
        node = own_node(self.attrs) if self.attrs else None
        if owner is not None:
            self.exec_parent_id = owner.span_id
            self.node = owner.node if node is None else node
        elif node is not None:
            self.node = node
        remote = self._remote_parent
        if remote is not None:
            # Causal parent: the span that *sent* the message. The ambient
            # span is kept separately (exec_parent_id) so time stays
            # nested under whatever ran the delivery.
            self.parent_id = remote.span_id
            self.trace_id = remote.trace_id
            self.remote = True
        elif owner is not None:
            self.parent_id = owner.span_id
            self.trace_id = owner.trace_id
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer, profiler = self._tracer, self._profiler
        if tracer is None:
            inclusive = profiler.clock() - self.start_s
            _current.reset(self._token)
            owner = self._owner
        else:
            if exc is not None:
                self.record_error(exc)
            _current.reset(self._token)
            self._token = None
            tracer._exit(self)
            if profiler is None:
                self._frame = None  # a finished span holds nothing above it
                return False  # never swallow exceptions
            inclusive = self.end_s - self.start_s
            owner = self
        # A center's inclusive time is its enclosing center's child time.
        frame = self._frame
        if frame is not None:
            frame.child_s += inclusive
            self._frame = None
        exclusive = inclusive - self.child_s
        profiler._record(
            self.center, inclusive, exclusive if exclusive > 0.0 else 0.0, self.n_bytes, owner
        )
        return False

    # -- facts ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"{self.duration_s * 1e3:.3f} ms, {self.status})"
        )


class NoopSpan:
    """The probe handed out while nothing is installed.

    A single shared instance: entering, exiting, attribute and byte writes
    are all no-ops, so an instrumented call path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> "NoopSpan":
        return self

    def add_bytes(self, n: int) -> "NoopSpan":
        return self


NOOP_SPAN = NoopSpan()


# ---------------------------------------------------------------------------
# Entry points and the installed pair
# ---------------------------------------------------------------------------


def span(
    name: str,
    attrs: dict[str, Any] | None = None,
    remote_parent: SpanContext | None = None,
    center: str | None = None,
) -> Span | NoopSpan:
    """Open a span on the installed tracer, counted under ``center`` too
    when one is named and the profiler is on; without a tracer, a named
    center still opens a frame. The shared no-op otherwise."""
    on = INSTALLED
    if on is None:
        return NOOP_SPAN
    tracer, profiler = on
    if center is None:
        return NOOP_SPAN if tracer is None else Span(name, tracer, attrs, remote_parent)
    return Span(name, tracer, attrs, remote_parent, center, profiler)


def profiled(center: str, n_bytes: int = 0) -> Span | NoopSpan:
    """Open a frame: a center-only probe the profiler counts (calls,
    inclusive and exclusive seconds, bytes) and the tracer never retains.
    The shared no-op while the profiler is off.

    Usage::

        with profiled("serialize.canonical_json") as pf:
            data = ...
            pf.add_bytes(len(data))
    """
    on = INSTALLED
    if on is None or on[1] is None:
        return NOOP_SPAN
    return Span(center, None, None, None, center, on[1], n_bytes)


def installed() -> "tuple[Tracer | None, Profiler | None]":
    """The installed ``(tracer, profiler)``, either of them ``None``."""
    return INSTALLED or (None, None)


def install(tracer: "Tracer | None", profiler: "Profiler | None") -> None:
    global INSTALLED
    INSTALLED = None if tracer is None and profiler is None else (tracer, profiler)


def current_span() -> Span | None:
    """The innermost active retained span in this execution context."""
    probe = _current.get()
    if probe is None or probe._tracer is not None:
        return probe
    return probe._owner


def current_context() -> SpanContext | None:
    """The current span's injectable context, or ``None``.

    ``None`` both when tracing is disabled (checked first — the disabled
    path costs one global read) and when no span is active. This is what
    transports call to stamp outgoing messages.
    """
    on = INSTALLED
    if on is None or on[0] is None:
        return None
    sp = current_span()
    return None if sp is None else sp.context()

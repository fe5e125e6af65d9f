"""Spans: the unit of the tracing layer.

A :class:`Span` is one timed, named region of the pipeline — an endorsement,
a consensus round, an IPFS add — with attributes, a parent link, and an
error status captured from any exception that escaped the region. Spans are
context managers handed out by :class:`repro.obs.Tracer`; user code never
constructs them directly.

Identifiers are deterministic (a process-wide counter, not random), so
traces of the same run are stable and testable.

Every span also knows the *node* it ran on — the one attribution rule the
profiler, the critical path and the Chrome trace all read: a span's own
``node`` / ``peer`` / ``replica`` attribute (first present wins), ``orderer``
if it carries an ``orderer`` attribute, otherwise the node of the span it
opened under, and ``client`` at the top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.tracer import Tracer

_ids = itertools.count(1)

# Node of a span with no location attribute anywhere above it: the client
# process that drives submit/retrieve.
CLIENT_NODE = "client"

# Attributes that name a span's node, in precedence order.
_NODE_ATTRS = ("node", "peer", "replica", "orderer")


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
    """One timed region. Use as ``with tracer.span("name") as sp:``."""

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
        "_tracer",
        "_token",
        "_remote_parent",
    )

    def __init__(
        self,
        name: str,
        tracer: "Tracer",
        attrs: dict[str, Any] | None = None,
        remote_parent: SpanContext | None = None,
    ) -> None:
        # The interval starts here: making the span is bookkeeping like its
        # enter and exit, billed to its own stage (see Tracer._enter).
        self.start_s: float = tracer.clock()
        self.name = name
        self.span_id = next_span_id()
        self.trace_id: str = self.span_id  # overwritten on enter if nested
        self.parent_id: str | None = None
        # The ambient (call-stack) parent. Equal to parent_id for ordinary
        # spans; differs for remote spans, where parent_id is the causal
        # sender and exec_parent_id the frame that ran the delivery.
        self.exec_parent_id: str | None = None
        self.remote: bool = False  # True when parented across a message hop
        self.node: str = CLIENT_NODE  # resolved on enter, see the module docs
        self.end_s: float | None = None
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.status: str = "ok"
        self.error: str | None = None
        self._tracer = tracer
        self._token = None
        self._remote_parent = remote_parent

    # -- recording --------------------------------------------------------------

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        if key in _NODE_ATTRS:
            # Spans already opened under this one keep the node they
            # inherited; location attributes are set before any child opens.
            self.node = own_node(self.attrs)
        return self

    def context(self) -> SpanContext:
        """This span's identity, injectable into an outgoing message."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def record_error(self, exc: BaseException) -> None:
        self.status = "error"
        self.error = f"{type(exc).__name__}: {exc}"

    # -- context manager --------------------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._exit(self, exc)
        return False  # never swallow exceptions

    # -- facts ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "exec_parent_id": self.exec_parent_id,
            "remote": self.remote,
            "node": self.node,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "status": self.status,
            "error": self.error,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"{self.duration_s * 1e3:.3f} ms, {self.status})"
        )


class NoopSpan:
    """The span handed out when tracing is disabled.

    A single shared instance: entering, exiting, and attribute writes are
    all no-ops, so an instrumented call path allocates nothing when the
    tracer is off.
    """

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> "NoopSpan":
        return self

    def context(self) -> None:
        return None

    def record_error(self, exc: BaseException) -> None:
        return None

    @property
    def finished(self) -> bool:
        return True

    @property
    def duration_s(self) -> float:
        return 0.0


NOOP_SPAN = NoopSpan()

"""Message envelope carried by the simulated network."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - type-only import, no runtime dep
    from repro.obs.probe import SpanContext


class Message:
    """A network message between two named nodes.

    ``payload`` is an arbitrary Python object (the simulator is in-process,
    so no wire serialization is required), but ``size_bytes`` drives the
    bandwidth model and must reflect the logical wire size of the payload.

    ``trace_ctx`` is the W3C-traceparent-style header slot: the sender's
    span context, stamped at send time when tracing is enabled, restored as
    the remote parent at delivery. Excluded from equality like
    ``send_time`` — tracing metadata is not message identity. One is built
    per destination of every send: a slotted class with a plain ``__init__``.
    """

    __slots__ = ("src", "dst", "payload", "size_bytes", "kind", "send_time", "trace_ctx")

    def __init__(
        self,
        src: str,
        dst: str,
        payload: Any,
        size_bytes: int = 256,
        kind: str = "msg",
        send_time: float = 0.0,
        trace_ctx: "SpanContext | None" = None,
    ) -> None:
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.kind = kind
        self.send_time = send_time
        self.trace_ctx = trace_ctx

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.src, self.dst, self.payload, self.size_bytes, self.kind) == (
            other.src, other.dst, other.payload, other.size_bytes, other.kind)

    def __repr__(self) -> str:
        return f"Message({self.src!r} -> {self.dst!r}, {self.kind!r}, {self.payload!r})"

"""Deterministic discrete-event network simulator.

The simulator is the substrate under the consensus protocols and the
bitswap block exchange: nodes register a handler, ``send`` schedules a
delivery event after the latency model's delay, and :meth:`SimNetwork.run`
drains the event heap in (time, sequence) order. Sequence numbers break
timestamp ties deterministically, so a given seed always produces the same
message interleaving — the property that makes Byzantine-fault tests
reproducible.

Failure injection supported at the network level:

* node crash / restart (:meth:`set_node_up`),
* network partitions (:meth:`partition` / :meth:`heal`),
* probabilistic message drops (``drop_rate``),
* per-link latency overrides (via :class:`repro.net.latency.PairwiseLatency`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import NetworkError, NodeUnreachableError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.obs.prof import profiled
from repro.obs.tracer import current_context, get_tracer
from repro.util.clock import SimClock
from repro.util.rng import rng_for

Handler = Callable[[Message], None]


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


@dataclass
class NetStats:
    """Counters the benchmarks and tests read after a run."""

    sent: int = 0
    delivered: int = 0
    dropped_rate: int = 0
    dropped_partition: int = 0
    dropped_down: int = 0
    dropped_chaos: int = 0
    duplicated_chaos: int = 0
    delayed_chaos: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0


@dataclass(frozen=True)
class FaultAction:
    """What an installed fault injector wants done to one message.

    Returned by ``SimNetwork.fault_injector(msg)``; the default (all-clear)
    action leaves the message alone. ``drop`` wins over the other fields."""

    drop: bool = False
    extra_delay_s: float = 0.0
    duplicate: bool = False


NO_FAULT = FaultAction()


class SimNetwork:
    """A set of named nodes exchanging messages in simulated time."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        drop_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        self.clock = SimClock()
        self.latency = latency or ConstantLatency()
        self.drop_rate = drop_rate
        self.stats = NetStats()
        self._handlers: dict[str, Handler] = {}
        self._up: dict[str, bool] = {}
        self._groups: dict[str, int] = {}  # partition group per node; same = reachable
        self._events: list[_Event] = []
        self._seq = itertools.count()
        self._rng = rng_for(seed, "net", "drops")
        self._running = False
        # Chaos hook: when set, called once per sent message (after the
        # drop_rate check) and may drop, delay, or duplicate it.
        self.fault_injector: Callable[[Message], FaultAction] | None = None

    # -- membership ---------------------------------------------------------

    def register(self, name: str, handler: Handler) -> None:
        """Attach a node; its handler runs for each delivered message."""
        if name in self._handlers:
            raise NetworkError(f"node {name!r} already registered")
        self._handlers[name] = handler
        self._up[name] = True
        self._groups[name] = 0

    def nodes(self) -> list[str]:
        return sorted(self._handlers)

    def set_node_up(self, name: str, up: bool) -> None:
        """Crash (``up=False``) or restart a node. Messages to a down node
        are silently dropped, as with a crashed process."""
        self._require_node(name)
        self._up[name] = up

    def is_up(self, name: str) -> bool:
        self._require_node(name)
        return self._up[name]

    # -- partitions ----------------------------------------------------------

    def partition(self, *sides: list[str]) -> None:
        """Split the network: nodes can only reach others on their side.

        Unlisted nodes stay in group 0 (the first side's group if the first
        side is meant to be the majority, pass them explicitly).
        """
        for name in self._groups:
            self._groups[name] = 0
        for gid, side in enumerate(sides, start=1):
            for name in side:
                self._require_node(name)
                self._groups[name] = gid

    def heal(self) -> None:
        """Remove all partitions."""
        for name in self._groups:
            self._groups[name] = 0

    def reachable(self, src: str, dst: str) -> bool:
        return self._groups[src] == self._groups[dst]

    # -- messaging ------------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size_bytes: int = 256, kind: str = "msg") -> None:
        """Schedule delivery of ``payload`` from ``src`` to ``dst``.

        Unknown destination raises immediately (a configuration bug); a down
        or partitioned destination drops the message silently (a fault being
        simulated). Drops by ``drop_rate`` are decided at send time so the
        decision sequence is deterministic per seed.
        """
        self._require_node(src)
        if dst not in self._handlers:
            raise NodeUnreachableError(f"unknown destination node {dst!r}")
        # Trace-context propagation: stamp the sender's span identity onto
        # the message (None when tracing is off — one global read). The
        # stamp happens at send time, so the causal parent is the span
        # that *sent*, not whatever runs the event loop at delivery.
        msg = Message(
            src=src, dst=dst, payload=payload, size_bytes=size_bytes,
            kind=kind, send_time=self.clock.now(), trace_ctx=current_context(),
        )
        self.stats.sent += 1
        self.stats.bytes_sent += size_bytes
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self.stats.dropped_rate += 1
            return
        fault = self.fault_injector(msg) if self.fault_injector is not None else NO_FAULT
        if fault.drop:
            self.stats.dropped_chaos += 1
            return
        delay = self.latency.delay(src, dst, size_bytes)
        if delay < 0:
            raise NetworkError("latency model returned a negative delay")
        if fault.extra_delay_s > 0:
            self.stats.delayed_chaos += 1
            delay += fault.extra_delay_s
        self.schedule(delay, lambda: self._deliver(msg))
        if fault.duplicate:
            self.stats.duplicated_chaos += 1
            self.schedule(delay, lambda: self._deliver(msg))

    def broadcast(self, src: str, payload: Any, size_bytes: int = 256, kind: str = "msg") -> None:
        """Send to every other node (the BFT protocols' primitive)."""
        for dst in self.nodes():
            if dst != src:
                self.send(src, dst, payload, size_bytes=size_bytes, kind=kind)

    def _deliver(self, msg: Message) -> None:
        # Reachability and liveness are evaluated at delivery time: a message
        # in flight when a partition forms is lost, like a TCP RST mid-split.
        if not self._up.get(msg.dst, False):
            self.stats.dropped_down += 1
            return
        if not self.reachable(msg.src, msg.dst):
            self.stats.dropped_partition += 1
            return
        self.stats.delivered += 1
        self.stats.bytes_delivered += msg.size_bytes
        tracer = get_tracer()
        if tracer is None:
            with profiled("net.deliver"):
                self._handlers[msg.dst](msg)
            return
        # Restore the remote parent: the handler (and every span it opens)
        # joins the sender's trace, turning per-node span trees into one
        # causal DAG per transaction. A message without a stamp (sent
        # outside any span) falls back to the ambient context.
        with tracer.span(
            "net.deliver",
            attrs={"src": msg.src, "node": msg.dst, "kind": msg.kind},
            remote_parent=msg.trace_ctx,
        ):
            with profiled("net.deliver"):
                self._handlers[msg.dst](msg)

    # -- event loop -----------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` simulated seconds (timers etc.)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(
            self._events, _Event(self.clock.now() + delay, next(self._seq), action)
        )

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> int:
        """Drain events in (time, seq) order; returns events processed.

        ``until`` bounds simulated time (events after it stay queued);
        ``max_events`` guards against livelock in protocol bugs.
        """
        if self._running:
            raise NetworkError("SimNetwork.run is not reentrant")
        self._running = True
        processed = 0
        try:
            # net.run's *exclusive* time is the drain machinery (heap pops,
            # clock advances); each action runs under net.dispatch, whose
            # own exclusive is the span/delivery machinery around the
            # handler — frames opened inside subtract themselves out.
            with profiled("net.run"):
                while self._events and processed < max_events:
                    if until is not None and self._events[0].time > until:
                        break
                    event = heapq.heappop(self._events)
                    self.clock.advance_to(event.time)
                    with profiled("net.dispatch"):
                        event.action()
                    processed += 1
        finally:
            self._running = False
        if until is not None and self.clock.now() < until:
            self.clock.advance_to(until)
        return processed

    def pending(self) -> int:
        return len(self._events)

    def _require_node(self, name: str) -> None:
        if name not in self._handlers:
            raise NetworkError(f"unknown node {name!r}")

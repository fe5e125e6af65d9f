"""Deterministic discrete-event network simulator.

The simulator is the substrate under the consensus protocols and the
bitswap block exchange: nodes register a handler, ``send`` schedules a
delivery event after the latency model's delay, and :meth:`SimNetwork.run`
drains the event heap in (time, sequence) order. Sequence numbers break
timestamp ties deterministically, so a given seed always produces the same
message interleaving — the property that makes Byzantine-fault tests
reproducible. An event is a plain ``(time, seq, action, message)`` tuple:
a delivery is ``(…, None, message)``, a timer ``(…, action, None)``; the
unique ``seq`` means the heap never compares past it.

Failure injection supported at the network level:

* node crash / restart (:meth:`set_node_up`),
* network partitions (:meth:`partition` / :meth:`heal`),
* probabilistic message drops (``drop_rate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import NetworkError, NodeUnreachableError
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.obs import probe
from repro.obs.prof import profiled
from repro.obs.tracer import current_context, span
from repro.util.clock import SimClock
from repro.util.rng import rng_for

Handler = Callable[[Message], None]


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
        latency: ConstantLatency | None = None,
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
        self._peers: dict[str, tuple[str, ...]] = {}  # node -> every other node, sorted
        self._up: dict[str, bool] = {}
        self._groups: dict[str, int] = {}  # partition group per node; same = reachable
        self._events: list[tuple[float, int, Callable | None, Message | None]] = []
        self._seq = 0  # next event sequence number
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
        order = sorted(self._handlers)
        self._peers = {n: tuple(m for m in order if m != n) for n in order}
        self._up[name] = True
        self._groups[name] = 0

    def set_node_up(self, name: str, up: bool) -> None:
        """Crash (``up=False``) or restart a node. Messages to a down node
        are silently dropped, as with a crashed process."""
        self._require_node(name)
        self._up[name] = up

    def is_up(self, name: str) -> bool:
        self._require_node(name)
        return self._up[name]

    def peers(self, name: str) -> tuple[str, ...]:
        """Every node but ``name``, in the order a broadcast reaches them."""
        return self._peers[name]

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
        self._enqueue(src, (dst,), payload, size_bytes, kind)

    def broadcast(self, src: str, payload: Any, size_bytes: int = 256, kind: str = "msg") -> None:
        """Send to every other node (the BFT protocols' primitive)."""
        self._require_node(src)
        self._enqueue(src, self._peers[src], payload, size_bytes, kind)

    def _enqueue(
        self, src: str, dsts: tuple[str, ...], payload: Any, size_bytes: int, kind: str
    ) -> None:
        """The one body of :meth:`send` and :meth:`broadcast`. The clock and
        the sender's span context (None when tracing is off) are read once
        per cast, so a message's causal parent is the span that *sent* it;
        the drop-rate draw and the fault injector run once per message, in
        destination order."""
        now = self.clock.now()
        ctx = current_context()
        stats, events, inject = self.stats, self._events, self.fault_injector
        drop_rate, delay_of = self.drop_rate, self.latency.delay
        for dst in dsts:
            msg = Message(src, dst, payload, size_bytes, kind, now, ctx)
            stats.sent += 1
            stats.bytes_sent += size_bytes
            if drop_rate and self._rng.random() < drop_rate:
                stats.dropped_rate += 1
                continue
            fault = NO_FAULT if inject is None else inject(msg)
            if fault.drop:
                stats.dropped_chaos += 1
                continue
            delay = delay_of(src, dst, size_bytes)
            if delay < 0:
                raise NetworkError("latency model returned a negative delay")
            if fault.extra_delay_s > 0:
                stats.delayed_chaos += 1
                delay += fault.extra_delay_s
            seq = self._seq
            heappush(events, (now + delay, seq, None, msg))
            if fault.duplicate:
                stats.duplicated_chaos += 1
                seq += 1
                heappush(events, (now + delay, seq, None, msg))
            self._seq = seq + 1

    def _deliver(self, msg: Message, observed: bool) -> None:
        # Reachability and liveness are evaluated at delivery time: a message
        # in flight when a partition forms is lost, like a TCP RST mid-split.
        dst, stats = msg.dst, self.stats
        if not self._up[dst]:
            stats.dropped_down += 1
            return
        if self._groups[msg.src] != self._groups[dst]:
            stats.dropped_partition += 1
            return
        stats.delivered += 1
        stats.bytes_delivered += msg.size_bytes
        handler = self._handlers[dst]
        if not observed:
            handler(msg)
            return
        # Restore the remote parent: the handler (and every span it opens)
        # joins the sender's trace, turning per-node span trees into one
        # causal DAG per transaction. A message without a stamp (sent
        # outside any span) falls back to the ambient context.
        attrs = {"src": msg.src, "node": dst, "kind": msg.kind}
        with span("net.deliver", attrs, msg.trace_ctx, center="net.deliver"):
            handler(msg)

    # -- event loop -----------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` simulated seconds (timers etc.)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heappush(self._events, (self.clock.now() + delay, self._seq, action, None))
        self._seq += 1

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> int:
        """Drain events in (time, seq) order; returns events processed.

        ``until`` bounds simulated time (events after it stay queued);
        ``max_events`` guards against livelock in protocol bugs.
        """
        if self._running:
            raise NetworkError("SimNetwork.run is not reentrant")
        self._running = True
        processed = 0
        events, clock = self._events, self.clock
        now = clock.now()
        # With no tracer and no profiler there is nothing to open around an
        # event. Otherwise net.run's exclusive time is the drain machinery
        # (heap pops, clock advances) and each event runs under
        # net.dispatch, whose exclusive time is the machinery around it.
        observed = probe.INSTALLED is not None
        try:
            with profiled("net.run"):
                while events and processed < max_events:
                    if until is not None and events[0][0] > until:
                        break
                    when, _, action, msg = heappop(events)
                    if when != now:
                        clock.advance_to(when)
                        now = when
                    processed += 1
                    if not observed:
                        if action is None:
                            self._deliver(msg, False)
                        else:
                            action()
                        continue
                    with profiled("net.dispatch"):
                        if action is None:
                            self._deliver(msg, True)
                        else:
                            action()
        finally:
            self._running = False
        if until is not None and clock.now() < until:
            clock.advance_to(until)
        return processed

    def pending(self) -> int:
        return len(self._events)

    def _require_node(self, name: str) -> None:
        if name not in self._handlers:
            raise NetworkError(f"unknown node {name!r}")

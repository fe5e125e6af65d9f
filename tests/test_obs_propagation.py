"""Cross-node trace-context propagation through the simulated network.

``SimNetwork.send`` stamps the sender's :class:`SpanContext` onto each
message; ``SimNetwork._deliver`` opens a ``net.deliver`` span with that
context as *remote parent*, so per-node span trees join into one causal
DAG per transaction. These tests pin the propagation semantics — including
under chaos (drops, duplicates) and ring-buffer eviction, where the causal
graph must degrade without orphaning or crashing the tree walks.
"""

import pytest

from repro import obs
from repro.net import ConstantLatency, FaultAction, NetNode, SimNetwork
from repro.obs.probe import SpanContext


@pytest.fixture(autouse=True)
def _no_global_tracer_leak():
    yield
    obs.disable()


class Recorder(NetNode):
    """Opens a handler span per delivery, like fabric/consensus nodes do."""

    def __init__(self, name, network):
        super().__init__(name, network)
        self.received = []

    def on_message(self, msg):
        self.received.append(msg)
        with obs.span("handler.work", attrs={"node": self.name}):
            pass


def make_net():
    net = SimNetwork(latency=ConstantLatency(base=0.01))
    a = Recorder("a", net)
    b = Recorder("b", net)
    return net, a, b


class TestRemoteParent:
    def test_remote_parent_joins_senders_trace(self):
        with obs.enabled() as tracer:
            ctx = SpanContext(trace_id="t-1", span_id="s-1")
            with tracer.span("delivery", remote_parent=ctx):
                pass
        (sp,) = tracer.spans("delivery")
        assert sp.trace_id == "t-1"
        assert sp.parent_id == "s-1"
        assert sp.remote is True

    def test_remote_parent_keeps_exec_context_separately(self):
        with obs.enabled() as tracer:
            ctx = SpanContext(trace_id="t-1", span_id="s-1")
            with tracer.span("frame") as frame:
                with tracer.span("delivery", remote_parent=ctx):
                    pass
        (sp,) = tracer.spans("delivery")
        assert sp.parent_id == "s-1"  # causal: the sender
        assert sp.exec_parent_id == frame.span_id  # exec: the running frame
        # The two views expose the same span through different edges.
        assert sp in tracer.children(frame, view="exec")
        assert sp not in tracer.children(frame, view="causal")

    def test_ordinary_span_has_matching_causal_and_exec_parent(self):
        with obs.enabled() as tracer:
            with tracer.span("outer") as outer:
                with tracer.span("inner"):
                    pass
        (inner,) = tracer.spans("inner")
        assert inner.parent_id == inner.exec_parent_id == outer.span_id
        assert inner.remote is False


class TestSimnetPropagation:
    def test_delivery_span_parents_to_sender_span(self):
        net, a, b = make_net()
        with obs.enabled() as tracer:
            with tracer.span("client.op") as op:
                a.send("b", "x", kind="ping")
            net.run()
        (deliver,) = tracer.spans("net.deliver")
        assert deliver.parent_id == op.span_id
        assert deliver.trace_id == op.trace_id
        assert deliver.remote is True
        assert deliver.attrs == {"src": "a", "node": "b", "kind": "ping"}
        # The handler's own span nests under the delivery, same trace.
        (work,) = tracer.spans("handler.work")
        assert work.parent_id == deliver.span_id
        assert work.trace_id == op.trace_id

    def test_multi_hop_chains_stay_in_one_trace(self):
        """a -> b -> a: the second hop's delivery parents to b's handler."""

        class Relay(Recorder):
            def on_message(self, msg):
                super().on_message(msg)
                if msg.payload == "fwd":
                    self.send(msg.src, "ack", kind="reply")

        net = SimNetwork(latency=ConstantLatency(base=0.01))
        a, b = Relay("a", net), Relay("b", net)
        with obs.enabled() as tracer:
            with tracer.span("client.op") as op:
                a.send("b", "fwd", kind="req")
            net.run()
        assert {s.trace_id for s in tracer.finished} == {op.trace_id}
        hops = tracer.spans("net.deliver")
        assert [h.attrs["kind"] for h in hops] == ["req", "reply"]
        # Second hop's causal parent lives inside the first hop's subtree.
        first_subtree = {hops[0].span_id}
        first_subtree.update(s.span_id for s in tracer.descendants(hops[0]))
        assert hops[1].parent_id in first_subtree

    def test_send_outside_any_span_starts_a_fresh_trace(self):
        net, a, b = make_net()
        with obs.enabled() as tracer:
            a.send("b", "x", kind="ping")
            net.run()
        (deliver,) = tracer.spans("net.deliver")
        assert deliver.parent_id is None
        assert deliver.remote is False
        assert deliver in tracer.roots()

    def test_tracing_disabled_leaves_messages_unstamped(self):
        net, a, b = make_net()
        a.send("b", "x")
        net.run()
        assert b.received[0].trace_ctx is None


class TestChaosPropagation:
    def test_dropped_message_leaves_no_orphan_spans(self):
        net, a, b = make_net()
        net.fault_injector = lambda m: FaultAction(drop=True)
        with obs.enabled() as tracer:
            with tracer.span("client.op") as op:
                a.send("b", "x")
            net.run()
        assert net.stats.dropped_chaos == 1
        assert tracer.spans("net.deliver") == []
        # The only trace is the sender's; no parentless stragglers appear.
        assert {s.trace_id for s in tracer.finished} == {op.trace_id}
        assert tracer.roots() == [op]

    def test_duplicated_message_yields_two_deliveries_one_parent(self):
        net, a, b = make_net()
        net.fault_injector = lambda m: FaultAction(duplicate=True)
        with obs.enabled() as tracer:
            with tracer.span("client.op") as op:
                a.send("b", "x")
            net.run()
        deliveries = tracer.spans("net.deliver")
        assert len(deliveries) == len(b.received) == 2
        assert {d.parent_id for d in deliveries} == {op.span_id}
        assert {d.trace_id for d in deliveries} == {op.trace_id}
        assert tracer.children(op) == deliveries

    def test_spans_dropped_total_counts_ring_evictions_exactly(self):
        reg = obs.MetricsRegistry()
        net, a, b = make_net()
        with obs.enabled(registry=reg, max_spans=3) as tracer:
            with tracer.span("client.op"):
                for _ in range(4):
                    a.send("b", "x")
            net.run()
        # 4 deliveries + 4 handler spans + 1 client span finished; ring
        # keeps 3, so exactly finished-3 were evicted and counted.
        assert len(tracer.finished) == 3
        assert tracer.dropped == 9 - 3
        assert reg.counter("spans_dropped_total").value == tracer.dropped


class TestEvictionConsistency:
    def test_parent_evicted_before_remote_child_finishes(self):
        """The sender span can be evicted (tiny ring) while its remote
        child is still in flight; the child must keep its causal parent_id
        and every tree walk must stay consistent, never crash."""
        net, a, b = make_net()
        with obs.enabled(max_spans=2) as tracer:
            with tracer.span("client.op") as op:
                a.send("b", "x")
                # Churn the ring until the sender's slot is gone.
                for _ in range(4):
                    with tracer.span("filler"):
                        pass
            net.run()  # delivery runs after `op` was evicted
        assert op not in tracer.finished
        (deliver,) = tracer.spans("net.deliver")
        assert deliver.parent_id == op.span_id  # causal link survives
        assert deliver.trace_id == op.trace_id
        # Walks over the retained window don't crash and stay O(retained).
        for root in tracer.roots():
            tracer.descendants(root)

    def test_eviction_keeps_indexes_consistent(self):
        with obs.enabled(max_spans=4) as tracer:
            for _ in range(6):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        pass
        assert len(tracer.finished) == 4
        assert tracer.dropped == 12 - 4
        retained = set(tracer.finished)
        assert set(tracer.roots()) <= retained
        indexed = {
            s.span_id
            for bucket in tracer._children_ix.values()
            for s in bucket.values()
        } | {s.span_id for s in tracer._roots_ix.values()}
        assert indexed == {s.span_id for s in tracer.finished}

    def test_clear_resets_indexes(self):
        with obs.enabled() as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
            tracer.clear()
        assert tracer.finished == type(tracer.finished)()
        assert tracer.roots() == []
        assert tracer._children_ix == {}
        assert tracer._exec_ix == {}

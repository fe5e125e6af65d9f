"""Tests for message tracing, including PBFT phase analysis.

With tracing on, every delivered message is a ``net.deliver`` span carrying
its sender (``src``), destination (``node``) and ``kind``; that span stream
is the network's message trace.
"""

from collections import Counter

from repro import obs
from repro.consensus import BftCluster
from repro.net import ConstantLatency, NetNode, SimNetwork


class Echo(NetNode):
    def on_message(self, msg):
        pass


def deliveries(tracer):
    return tracer.spans("net.deliver")


class TestMessageTrace:
    def make(self):
        net = SimNetwork(latency=ConstantLatency(base=0.01))
        a, b = Echo("a", net), Echo("b", net)
        return net, a, b

    def test_records_deliveries_with_time(self):
        net, a, b = self.make()
        with obs.enabled() as tracer:
            a.send("b", "x", kind="ping", size_bytes=100)
            net.run()
        (span,) = deliveries(tracer)
        assert span.attrs == {"src": "a", "node": "b", "kind": "ping"}
        assert span.node == "b"
        assert span.finished and span.end_s >= span.start_s

    def test_dropped_messages_not_recorded(self):
        net, a, b = self.make()
        net.set_node_up("b", False)
        with obs.enabled() as tracer:
            a.send("b", "lost")
            net.run()
        assert deliveries(tracer) == []

    def test_pair_matrix(self):
        net, a, b = self.make()
        with obs.enabled() as tracer:
            a.send("b", 1)
            a.send("b", 2)
            b.send("a", 3)
            net.run()
        pairs = Counter((s.attrs["src"], s.node) for s in deliveries(tracer))
        assert pairs == {("a", "b"): 2, ("b", "a"): 1}

    def test_detach_stops_recording(self):
        net, a, b = self.make()
        with obs.enabled() as tracer:
            a.send("b", 1)
            net.run()
        a.send("b", 2)
        net.run()
        assert len(deliveries(tracer)) == 1
        assert net.stats.delivered == 2


class TestPbftPhaseAnalysis:
    def test_three_phases_visible_and_quadratic(self):
        net = SimNetwork(latency=ConstantLatency(base=0.001))
        cluster = BftCluster(n_replicas=4, network=net)
        with obs.enabled() as tracer:
            cluster.submit("payload")
            cluster.run()
        kinds = Counter(s.attrs["kind"] for s in deliveries(tracer))
        # One pre-prepare broadcast (n-1), then all-to-all prepare/commit.
        assert kinds["PrePrepare"] == 3
        assert kinds["Prepare"] >= 9   # (n-1) broadcasts of n-1 each, minus self
        assert kinds["Commit"] >= 9
        # Prepare+Commit volume dominates: the O(n^2) phases.
        assert kinds["Prepare"] + kinds["Commit"] > 4 * kinds["PrePrepare"]
